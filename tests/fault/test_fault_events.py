"""Replica and push-tier faults as scripted sim events, played by
:func:`repro.sim.play` under every invariant (oracle-identical answers
included); a closing ``quiesce`` adds the liveness invariants."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.net.wire import encode
from repro.sim import SimConfig, SimEvent, play

pytestmark = pytest.mark.chaos

FLEET = SimConfig(premine=8, replicas=3, pollers=0, gateway_clients=1,
                  subscribers=0)
STREAM = SimConfig(premine=3, replicas=1, pollers=0, gateway_clients=0,
                   subscribers=3)
QUIESCE = SimEvent("quiesce", {})


def _query(account, f1=0.0):
    return SimEvent("query", {"slot": 0, "account": account,
                              "family": "history", "f1": f1, "f2": 1})


def _play(config, events):
    world, violation, _ = play(config, events)
    assert violation is None, violation
    return world, [line.split(" -> ", 1)[1] for line in world.events]


def _crash(point, hit, seed):
    return SimEvent("crash", {"point": point, "hit": hit, "cseed": seed,
                              "upto": 5})


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("hit", (1, 2, 4))
@pytest.mark.parametrize("point", ("query.execute.pre", "query.execute.post"))
def test_a_crashed_replica_fails_over_restarts_and_is_readmitted(
    point, hit, seed
):
    world, (outcome, _) = _play(FLEET, [_crash(point, hit, seed), QUIESCE])
    _point, fired, _client, answered = outcome.split()
    assert (fired, answered[:3]) == ("fired", "x5:"), outcome
    assert world.fleet[0].client.gateway.failovers >= 1
    crashed = [s for s in world.replica_supervisors.values() if s.crashes]
    assert [(s.crashes, s.restarts) for s in crashed] == [(1, 1)]


def test_a_crash_before_the_provider_ran_is_counted_exactly():
    """``shed-zero-work``: a request whose replica died at ``pre`` was
    admitted but never executed; one that died at ``post`` was both."""
    world, _ = _play(FLEET, [  # a new tip between, so nothing is cached
        _crash("query.execute.post", 1, 0), SimEvent("mine", {"txs": 1}),
        SimEvent("certify", {"upto": 1}), _crash("query.execute.pre", 1, 0),
    ])
    servers = [replica.server for replica in world.replicas.values()]
    admitted = sum(server.invocations.get("execute", 0) for server in servers)
    assert admitted == world.provider.executes + 1
    supervisors = world.replica_supervisors.values()
    crashes = sum((Counter(s.crashes_at) for s in supervisors), Counter())
    assert crashes == {"query.execute.post": 1, "query.execute.pre": 1}


@pytest.mark.parametrize("lossy", ((1, 2), (2, 3), (1, 3)))
def test_two_replicas_behind_lossy_links_still_serve(lossy):
    faults = [SimEvent("lossy_link", {"slot": 0, "drop": 0.6, "peer": peer})
              for peer in lossy]
    queries = [_query(account, f1) for account in range(4) for f1 in (0, .5)]
    _, outcomes = _play(FLEET, faults + queries + [QUIESCE])
    assert all(" ans:" in outcome for outcome in outcomes[2:-1]), outcomes


@pytest.mark.parametrize("mode", ("forged", "malformed"))
def test_a_lying_replica_is_shunned_and_nothing_of_its_is_cached(mode):
    events = [SimEvent("lying_replica", {"idx": 0, "mode": mode})] + [
        _query(account, f1) for account in range(4) for f1 in (0, .5)
    ]
    world, outcomes = _play(FLEET, events)
    assert all(" ans:" in outcome for outcome in outcomes[1:]), outcomes
    client = world.fleet[0].client
    assert not client.gateway.replicas["sp1"].closed
    assert client.integrity_failures >= 1
    for (request, _root), answer in client.cache._entries.items():
        assert encode(answer) == encode(world.oracle.execute(request))
    world, outcomes = _play(FLEET, events + [QUIESCE])  # the lie ends
    assert outcomes[-1].split()[3] == "lies=1"
    assert world.fleet[0].client.gateway.replicas["sp1"].closed


def test_lossy_subscriber_links_converge_and_forge_nothing():
    faults = [SimEvent("lossy_link", {"slot": slot, "drop": 0.3, "peer": 0})
              for slot in range(3)]
    rounds = [SimEvent("mine", {"txs": 1}), SimEvent("certify", {"upto": 1})]
    rounds += [SimEvent("heartbeat", {"slot": slot}) for slot in range(3)]
    world, _ = _play(STREAM, faults + rounds * 7 + [QUIESCE])
    for entry in world.fleet:
        assert entry.client.latest_header.height == STREAM.premine + 7
        assert entry.client.push_rejected == 0
        assert entry.client.push_adopted + entry.client.push_resyncs > 0
    dropped = [c.get("dropped", 0) for c in world.injector.summary().values()]
    assert sum(dropped) > 0


def test_a_burst_behind_dead_links_recovers_through_one_reply_each():
    """Every push of a six-block burst is lost: each subscriber holds
    the burst's first push unacked and the hub one tip, not a backlog,
    and polls nothing meanwhile; after ``quiesce`` each caught up
    through one heartbeat reply, to the bytes a poller outside the
    partition holds."""
    config = replace(STREAM, pollers=1)  # fleet slot 0; subscribers 1-3
    events = [SimEvent("partition", {"slot": slot, "peer": 0})
              for slot in range(1, 4)]
    dark, _ = _play(config, events)
    events += [SimEvent("mine", {"txs": 1})] * 6
    events.append(SimEvent("certify", {"upto": 6}))
    world, _ = _play(config, events)
    assert world.hub.tip.seq == STREAM.premine + 6
    for state in world.hub.subscribers.values():
        assert state.inflight == STREAM.premine + 1
    subscribers = world.fleet[1:]
    heights = {entry.client.latest_header.height for entry in subscribers}
    assert heights == {STREAM.premine}
    calls = [entry.client.rpc.calls for entry in subscribers]
    assert calls == [entry.client.rpc.calls for entry in dark.fleet[1:]]
    world, _ = _play(config, events + [QUIESCE])
    poller = world.fleet[0].client
    for entry, before in zip(world.fleet[1:], calls):
        client = entry.client
        assert (client.push_resyncs, client.push_rejected) == (1, 0)
        assert client.rpc.calls == before + 1
        assert client.state.encode() == poller.state.encode()
    assert world.hub.retransmits == len(world.fleet) - 1
