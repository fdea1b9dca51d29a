"""The serving tier's modeled claims, as scripted sim plays.

An untrusted, freely replicated query tier (PAPER.md §1, §5) is worth
having only if replicas add throughput, push saves the round trips
polling spends, and a saturated or slowed tier keeps serving.  Each
claim is one :func:`repro.sim.play` of existing event kinds under every
invariant, read off the world afterwards; latency is the virtual-clock
``gateway.batch_ms`` histogram (one observation per gateway batch), not
the event log's ``t=``, which also drains abandoned hedge losers.
"""

import pytest

from repro import obs
from repro.sim import SimConfig, SimEvent, play

pytestmark = pytest.mark.sim


def _play(config, events):
    """``play`` with observability on: the world and its ``gateway.batch_ms``."""
    with obs.observability():
        obs.registry().reset()
        world, violation, _ = play(config, events)
        batches = obs.registry().histogram("gateway.batch_ms")
    assert violation is None, violation
    return world, batches


# -- fleet: replicas add throughput, a warm cache adds nothing to send -------

BATCH = 24
# Sim gateways time out at 400 ms, so a 24-query batch on one replica
# needs a short service time; admission as the ``fleet`` row's, so the
# batch queues whole instead of being shed.
FLEET_SERVICE_MS = 10.0
QUERY_MANY = SimEvent("query_many", {"slot": 0, "count": BATCH, "account": 0})


def _fleet(replicas):
    return SimConfig(premine=8, replicas=replicas, pollers=0,
                     gateway_clients=1, subscribers=0,
                     service_time_ms=FLEET_SERVICE_MS,
                     shed_delay_ms=FLEET_SERVICE_MS * BATCH,
                     admission_queue_limit=BATCH)


def test_four_replicas_serve_a_batch_at_least_2_5x_faster_than_one():
    """Pipelined dispatch over busy workers: M queries on N replicas take
    about M/N service times (250, 130 and 70 ms for 1, 2 and 4)."""
    elapsed = {}
    for replicas in (1, 2, 4):
        world, batches = _play(_fleet(replicas), [QUERY_MANY])
        assert f" x{BATCH}:" in world.events[0], world.events
        assert (batches.count, world.fleet[0].client.gateway.rpc.calls) == (1, BATCH)
        elapsed[replicas] = batches.total
    assert elapsed[1] / elapsed[4] >= 2.5, elapsed
    assert elapsed[2] < elapsed[1], elapsed


def test_a_repeated_batch_makes_no_gateway_dispatch():
    """Determinism makes the one-batch play the two-batch play's exact
    prefix: the repeat is answered from the verified-answer cache with
    the same bytes, and the gateway is never entered."""
    once, once_batches = _play(_fleet(2), [QUERY_MANY])
    twice, twice_batches = _play(_fleet(2), [QUERY_MANY, QUERY_MANY])
    cold, warm = (line.split(" -> ")[1] for line in twice.events)
    assert cold == warm == once.events[0].split(" -> ")[1]
    gateways = [world.fleet[0].client.gateway for world in (once, twice)]
    assert gateways[0].rpc.calls == gateways[1].rpc.calls == BATCH
    assert once_batches.count == twice_batches.count == 1
    assert twice.fleet[0].client.cache.hits >= BATCH


# -- push vs poll: the round trips to keep a fleet at the tip ----------------

CLIENTS = 8
BLOCKS = 12


def test_push_keeps_subscribers_at_the_tip_with_5x_fewer_round_trips():
    """Each poller syncs once per new block; each subscriber bootstraps
    and subscribes once and is pushed the rest (104 calls against 16)."""
    config = SimConfig(premine=1, replicas=1, pollers=CLIENTS,
                       gateway_clients=0, subscribers=CLIENTS)
    block = [SimEvent("mine", {"txs": 1}), SimEvent("certify", {"upto": 1})]
    polls = [SimEvent("sync", {"slot": slot}) for slot in range(CLIENTS)]
    world, _ = _play(config, (block + polls) * BLOCKS)
    tip = config.premine + BLOCKS
    calls = {"poll": 0, "push": 0}
    for entry in world.fleet:
        calls[entry.kind] += entry.client.rpc.calls
        assert entry.client.latest_header.height == tip
        if entry.kind == "push":
            assert entry.client.push_adopted == BLOCKS
            assert entry.client.push_rejected == 0
    assert world.hub.published == tip
    assert calls["poll"] / calls["push"] >= 5.0, calls


# -- overload: goodput under admission, the hedged tail ----------------------

OVERLOAD_SERVICE_MS = 20.0
SHED_DELAY_MS = 40.0
ARRIVALS = 300


def _paced_burst(budget_ms):
    """``ARRIVALS`` requests at five times one replica's capacity, each
    with a ``budget_ms`` deadline."""
    gap_ms = OVERLOAD_SERVICE_MS / 5
    return SimEvent("burst", {"idx": 0, "count": ARRIVALS, "account": 1,
                              "gap_ms": gap_ms, "budget": budget_ms})


def test_admission_holds_goodput_at_5x_offered_load():
    """A loose budget rides the shed threshold, a tight one is refused at
    arrival; either way the worker stays busy with work that finishes.
    (Shed and refused requests doing no provider work is the
    ``shed-zero-work`` invariant, checked after every event.)"""
    config = SimConfig(premine=8, replicas=1, pollers=0, gateway_clients=0,
                       subscribers=0, service_time_ms=OVERLOAD_SERVICE_MS,
                       shed_delay_ms=SHED_DELAY_MS, admission_queue_limit=64)
    start = SimEvent("drain", {"ms": 0.0})  # stamps the clock before
    world, _ = _play(config, [start, _paced_burst(150.0), _paced_burst(30.0)])
    server = world.replicas["sp1"].server
    start_ms, end_ms = (float(line.split()[1][len("t="):])
                        for line in (world.events[0], world.events[-1]))
    goodput_qps = server.requests_served / ((end_ms - start_ms) / 1000.0)
    capacity_qps = 1000.0 / OVERLOAD_SERVICE_MS
    assert goodput_qps >= 0.8 * capacity_qps, goodput_qps
    assert server.max_queue_delay_ms <= SHED_DELAY_MS + OVERLOAD_SERVICE_MS
    assert server.requests_shed > 0 and server.deadline_refused > 0
    replied = (server.requests_served + server.requests_shed
               + server.deadline_refused)
    assert replied == 2 * ARRIVALS
    assert world.provider.executes == server.invocations["execute"]


def test_hedging_holds_the_slowest_query_under_half_a_slow_dispatch():
    """Latency trackers warm up on 20 queries, one replica turns 20x
    slow, and 40 more are asked: each one that lands there is hedged at
    the observed quantile, so even the slowest query (24 ms) beats half
    of one dispatch to the slow replica (202 ms)."""
    config = SimConfig(premine=8, replicas=2, pollers=0, gateway_clients=1,
                       subscribers=0, service_time_ms=10.0, latency_ms=1.0,
                       accounts=64)  # distinct accounts: no cache hits
    queries = [
        SimEvent("query", {"slot": 0, "account": account, "family": "history",
                           "f1": 0.0, "f2": 1.0})
        for account in range(60)
    ]
    slow = SimEvent("slow_replica", {"idx": 1, "factor": 20})
    world, batches = _play(config, queries[:20] + [slow] + queries[20:])
    gateway = world.fleet[0].client.gateway
    slow_dispatch_ms = 20 * config.service_time_ms + 2 * config.latency_ms
    assert batches.count == len(queries)
    assert gateway.hedges > 0 and gateway.hedge_wins > 0
    assert batches.maximum <= slow_dispatch_ms / 2, batches.maximum
