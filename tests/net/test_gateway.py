"""The query gateway: balancing, health (one breaker per replica),
failover, and the one flight engine behind ``call`` and ``call_many``.

These tests exercise the gateway against plain RpcServers (any method
registry works — the gateway is method-agnostic); the full
QueryService + supervisor composition is the sim's (every replica is
supervised; tests/fault/test_fault_events.py).
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
    HEDGE_MIN_SAMPLES,
    OUTSTANDING_LIMIT,
    QueryGateway,
    ReplicaState,
)
from repro.net.resilience import AdmissionPolicy, CircuitBreaker
from repro.net import wire
from repro.net.rpc import RpcClient, RpcRequest, RpcServer
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


def make_gateway(bus, replicas, *, timeout_ms=100.0):
    return QueryGateway(bus, "gw", replicas, timeout_ms=timeout_ms)


# -- balancing ---------------------------------------------------------------


def test_round_robin_distributes_evenly(bus):
    servers = make_fleet(bus, 3)
    gateway = make_gateway(bus, list(servers))
    for _ in range(9):
        gateway.call("echo", "x")
    assert [s.requests_served for s in servers.values()] == [3, 3, 3]


def test_batches_of_one_rotate_in_fleet_order(bus):
    servers = make_fleet(bus, 3)
    gateway = make_gateway(bus, list(servers))
    served = [gateway.call("echo", i)["replica"] for i in range(7)]
    assert served == ["sp1", "sp2", "sp3", "sp1", "sp2", "sp3", "sp1"]


@pytest.mark.parametrize("turn", [0, 1, 2])
@pytest.mark.parametrize("due", ["sp1", "sp2", "sp3"])
def test_a_batch_dispatches_once_to_each_replica_when_one_is_due(bus, due, turn):
    """The turn walks the fleet's fixed order: the due replica becoming
    the half-open probe mid-batch shifts no other replica's turn, so a
    3-item batch over 3 replicas reaches each once, beside the probe's
    hedge.  (Indexing a list of the replicas eligible per item skipped
    one: sp1, sp2 the probe, sp1 again.)"""
    make_fleet(bus, 3)
    gateway = make_gateway(bus, ["sp1", "sp2", "sp3"])
    for i in range(turn):
        gateway.call("echo", i)
    state = gateway.replicas[due]
    for _ in range(CircuitBreaker.FAILURE_TRIP):
        state.breaker.record_failure(bus.clock_ms)
    assert due not in gateway.healthy_replicas()
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    before = {name: s.dispatched for name, s in gateway.replicas.items()}
    hedges = gateway.hedges  # the probe's own hedge, sent at once
    assert [r["arg"] for r in gateway.call_many("echo", ["a", "b", "c"])] == ["a", "b", "c"]
    sent = {name: s.dispatched - before[name] for name, s in gateway.replicas.items()}
    assert sent[due] == 1 and min(sent.values()) == 1
    assert sum(sent.values()) == 3 + gateway.hedges - hedges
    assert gateway.healthy_replicas() == ["sp1", "sp2", "sp3"]


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
    gateway = make_gateway(bus, ["sp1", "sp2"])
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    assert gateway.healthy_replicas() == ["sp2"]
    servers["sp1"].paused = False  # the replica comes back
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # the probe window opens
    for i in range(4):
        gateway.call("echo", i)
    assert sorted(gateway.healthy_replicas()) == ["sp1", "sp2"]
    assert servers["sp1"].requests_served >= 1


def test_probe_backoff_grows_while_replica_stays_dead(bus):
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(bus, ["sp1", "sp2"])
    for i in range(2):
        gateway.call("echo", i)
    state = gateway.replicas["sp1"]
    assert not state.closed
    first_probe = state.breaker.reopen_at_ms
    bus.run_for(first_probe - bus.clock_ms)
    gateway.call("echo", 2)  # the due probe fails again
    assert state.breaker.reopen_at_ms > first_probe
    assert state.breaker.trips >= 2


def test_an_ejected_replica_is_probed_by_one_dispatch(bus):
    """A due probe is one dispatch, not a share of every batch: while
    it is out, the rest of the batch goes to the replicas in rotation.
    The probe is hedged at once and its hedge wins, so the dead replica
    costs the batch no timeout, and the lost probe reopens it."""
    servers = make_fleet(bus, 2)
    servers["sp1"].paused = True
    gateway = make_gateway(bus, ["sp1", "sp2"])
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    assert gateway.healthy_replicas() == ["sp2"]
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    dispatched, trips = state.dispatched, state.breaker.trips
    timeouts = gateway.rpc.timeouts
    results = gateway.call_many("echo", list(range(8)))
    assert [r["arg"] for r in results] == list(range(8))
    assert {r["replica"] for r in results} == {"sp2"}
    assert state.dispatched - dispatched == 1
    assert state.breaker.trips == trips + 1
    assert gateway.rpc.timeouts == timeouts


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


# -- trust answers, not replicas ---------------------------------------------


def test_unverifiable_replica_is_routed_around(bus):
    make_fleet(bus, 2)

    def reject_sp1(position, result):
        if result["replica"] == "sp1":
            raise ResponseIntegrityError("stale roots")

    gateway = make_gateway(bus, ["sp1", "sp2"])
    results = {
        gateway.call_many("echo", [i], accept=reject_sp1)[0]["replica"]
        for i in range(4)
    }
    assert results == {"sp2"}
    assert not gateway.replicas["sp1"].closed


def test_a_due_probe_cannot_hold_a_batch_past_its_deadline(bus):
    """A batch whose deadline is shorter than one dispatch timeout meets
    a dead replica's due probe: the probe is one dispatch like any
    other, hedged to the live replica, and the batch is answered inside
    its deadline.  Nothing is asked of a replica before a dispatch: a
    root lookup hung on the gateway the way a client once installed its
    replica-switch check (``verify_switch``) is never run."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=400.0)
    for _ in range(4):  # warms both latency windows
        gateway.call_many("echo", list(range(4)))

    def unavailable(argument):
        raise ServiceUnavailableError("restarting")

    servers["sp1"].register("echo", unavailable)
    for i in range(4):
        gateway.call("echo", i)  # two prompt refusals eject sp1
    state = gateway.replicas["sp1"]
    assert not state.closed
    servers["sp1"].paused = True  # and now it is dead
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    looked_up = []

    def verify_switch(replica):
        looked_up.append(replica)
        gateway.rpc.call(replica, "index_roots")

    gateway.verify_switch = verify_switch
    dispatched = state.dispatched
    deadline = bus.clock_ms + 150.0
    results = gateway.call_many("echo", ["a", "b"], deadline_ms=deadline)
    assert bus.clock_ms <= deadline
    assert [r["arg"] for r in results] == ["a", "b"]
    assert {r["replica"] for r in results} == {"sp2"}
    assert state.dispatched - dispatched == 1  # the probe went out
    assert looked_up == []


def test_a_probe_to_a_dead_replica_does_not_fail_a_short_batch(bus):
    """The dead replica has fewer latency samples than the hedge needs
    (``HEDGE_MIN_SAMPLES``): its due probe is hedged at once all
    the same, so a batch whose deadline is shorter than one timeout is
    answered.  The probe its hedge beat has failed: the open window
    doubles, so the next short batch sends the dead replica nothing."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=400.0)
    servers["sp1"].paused = True
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    state = gateway.replicas["sp1"]
    assert not state.closed and len(state.latency) < HEDGE_MIN_SAMPLES
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    dispatched, trips = state.dispatched, state.breaker.trips
    for batch in (["a", "b", "c"], ["d", "e", "f"]):
        deadline = bus.clock_ms + 150.0
        results = gateway.call_many("echo", batch, deadline_ms=deadline)
        assert bus.clock_ms <= deadline
        assert [r["arg"] for r in results] == batch
        assert {r["replica"] for r in results} == {"sp2"}
    assert state.dispatched - dispatched == 1  # one probe, not one a batch
    assert state.breaker.trips == trips + 1  # the lost probe reopened it
    assert state.breaker.reopen_at_ms - bus.clock_ms > CircuitBreaker.OPEN_BASE_MS


def test_a_default_gateway_answers_short_batches_past_a_dead_replica_s_probe(bus):
    """A gateway built with no settings, as every client builds one,
    with sp1 dead and its probe due: four batches of three whose
    deadline is shorter than one dispatch timeout are all answered.
    The probe is hedged at once, so sp1 gets one probe for the four
    batches, and the probe its hedge beat reopens sp1 with its open
    window doubled."""
    servers = make_fleet(bus, 2)
    gateway = QueryGateway(bus, "gw", ["sp1", "sp2"])
    assert gateway.rpc.timeout_ms > 150.0
    servers["sp1"].paused = True
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    probe_due, dispatched = bus.clock_ms, state.dispatched
    trips = state.breaker.trips
    for batch in range(4):
        items = [f"{batch}{letter}" for letter in "abc"]
        deadline = bus.clock_ms + 150.0
        results = gateway.call_many("echo", items, deadline_ms=deadline)
        assert bus.clock_ms <= deadline
        assert [r["arg"] for r in results] == items
        assert {r["replica"] for r in results} == {"sp2"}
    assert state.dispatched - dispatched == 1  # one probe for four batches
    assert state.breaker.trips == trips + 1
    doubled = CircuitBreaker.OPEN_BASE_MS * CircuitBreaker.OPEN_FACTOR
    assert state.breaker.reopen_at_ms - probe_due >= doubled


def test_a_recovered_replica_whose_probe_lost_its_hedge_race_returns(bus):
    """sp1 comes back slow, so its first probe loses to the hedge and
    fails.  With its link fast again, the probe due after the backed-off
    window answers first: sp1 is back in rotation within that window."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=400.0)
    servers["sp1"].paused = True
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    servers["sp1"].paused = False  # back, but slow
    bus.set_latency("gw", "sp1", 60.0)
    bus.set_latency("sp1", "gw", 60.0)
    results = gateway.call_many("echo", ["a", "b"])
    assert {r["replica"] for r in results} == {"sp2"}
    assert state.breaker.state == CircuitBreaker.OPEN  # the probe lost
    window_ms = state.breaker.reopen_at_ms - bus.clock_ms
    assert window_ms <= CircuitBreaker.OPEN_MAX_MS * (1.0 + CircuitBreaker.JITTER)
    # The next probe is due at the reopen time; its answer is one round
    # trip later.
    returned_by = max(state.breaker.reopen_at_ms, bus.clock_ms) + 2 * 5.0
    bus.set_latency("gw", "sp1", 5.0)
    bus.set_latency("sp1", "gw", 5.0)
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)
    gateway.call_many("echo", ["x", "y"])  # one of the two is the probe
    assert state.closed
    assert bus.clock_ms <= returned_by
    assert gateway.healthy_replicas() == ["sp1", "sp2"]


def test_a_probe_s_item_is_re_dispatched_when_its_hedge_fails(bus):
    """The live replica refuses the probe's hedge: a dead replica's
    probe, still in the air, does not count as carrying the item, so
    the item is dispatched again inside the batch's deadline."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=400.0)
    servers["sp1"].paused = True
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    refusals = []

    def refuse_twice(argument):
        if len(refusals) < 2:
            refusals.append(argument)
            raise ServiceUnavailableError("restarting")
        return {"replica": "sp2", "arg": argument}

    servers["sp2"].register("echo", refuse_twice)
    deadline = bus.clock_ms + 150.0
    results = gateway.call_many("echo", ["a", "b"], deadline_ms=deadline)
    assert bus.clock_ms <= deadline
    assert [r["arg"] for r in results] == ["a", "b"]
    assert sorted(refusals) == ["a", "b"]  # one item's hedge among them


def test_a_probe_that_answers_first_settles_its_waiting_item(bus):
    """A probe's hedge is refused and the item waits to go out again
    (no replica is eligible); then the slow probe answers it.  The
    item is answered once: its waiting re-dispatch is dropped, and the
    other item still gets its own answer."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=400.0)
    servers["sp1"].paused = True
    for i in range(2):
        gateway.call("echo", i)  # two liveness strikes eject sp1
    state = gateway.replicas["sp1"]
    bus.run_for(state.breaker.reopen_at_ms - bus.clock_ms)  # probe due
    servers["sp1"].paused = False  # back, but slow
    bus.set_latency("gw", "sp1", 60.0)
    bus.set_latency("sp1", "gw", 60.0)

    def refuse(argument):
        raise ServiceUnavailableError("restarting")

    servers["sp2"].register("echo", refuse)  # two refusals open sp2
    results = gateway.call_many("echo", ["a", "b"])
    assert [r["arg"] for r in results] == ["a", "b"]
    assert {r["replica"] for r in results} == {"sp1"}


# -- bounded bookkeeping -----------------------------------------------------


def test_inflight_bookkeeping_is_bounded():
    state = ReplicaState("sp", "gw:sp")
    for request_id in range(1000):
        state.track(request_id, float(request_id))
    assert state.outstanding == OUTSTANDING_LIMIT == 256
    # Oldest entries were evicted; newest retained.
    assert 999 in state.inflight and 0 not in state.inflight
    assert state.dispatched == 1000


# -- the pipelined path ------------------------------------------------------


def test_call_many_keeps_the_fleet_busy(bus):
    servers = make_fleet(bus, 2, service_time_ms=40.0)
    gateway = make_gateway(
        bus, ["sp1", "sp2"],
        timeout_ms=500.0,
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
        assert state.closed and state.failures == 0


def test_deadline_expiring_in_flight_abandons_without_a_strike(bus):
    servers = make_fleet(bus, 2)
    for server in servers.values():
        server.paused = True  # requests vanish: nothing ever answers
    gateway = make_gateway(bus, list(servers))
    deadline = bus.clock_ms + 40.0  # well inside the 100 ms timeout
    with pytest.raises(DeadlineExceededError):
        gateway.call_many("echo", ["a", "b"], deadline_ms=deadline)
    assert bus.clock_ms == deadline
    assert gateway.rpc.calls == 2 and gateway.rpc.timeouts == 0
    for state in gateway.replicas.values():
        assert state.closed and state.failures == 0
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
    flood = RpcClient(bus, "flood")
    for i in range(4):
        flood.begin("sp2", "echo", i)
    assert gateway.call("echo", "shed-by-sp2")["replica"] == "sp1"
    assert gateway.replicas["sp2"].failures == 1
    assert len(gateway.replicas["sp1"].latency) == windows["sp1"] + 1
    assert len(gateway.replicas["sp2"].latency) == windows["sp2"]


@pytest.mark.parametrize("warm", [False, True])
def test_a_dispatch_is_one_send_warm_or_cold(bus, warm):
    """A replica that times out was sent to exactly once, whether its
    latency window can already drive a hedge or not."""
    servers = make_fleet(bus, 2)
    gateway = make_gateway(bus, ["sp1", "sp2"])
    if warm:
        for i in range(2 * HEDGE_MIN_SAMPLES):
            gateway.call("echo", i)
    servers["sp1"].paused = True
    assert gateway.call("echo", "x")["replica"] == "sp2"
    assert servers["sp1"].requests_dropped == 1
    assert gateway.hedges == (1 if warm else 0)


def test_batches_hedge_too(bus):
    servers = make_fleet(bus, 2, service_time_ms=10.0)
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=1_000.0)
    for _ in range(4):  # warms both windows
        gateway.call_many("echo", list(range(4)))
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
    gateway = make_gateway(bus, ["sp1", "sp2"], timeout_ms=1_000.0)
    for _ in range(4):  # warms both windows
        gateway.call_many("echo", list(range(4)))
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
    gateway = make_gateway(bus, list(servers))
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
                s.breaker.state, s.breaker.trips, len(s.latency),
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
