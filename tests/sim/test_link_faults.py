"""Link faults reach every endpoint a client talks through.

A sim client reaches the issuer and the hub from its own endpoint and
the replicas from its gateway's.  A ``partition`` or ``lossy_link``
event must fault both, or a client "cut off" from every replica would
still be answered through its gateway; ``heal`` must undo both.  A
fault that loses a push client's unsubscribe leaves it unsubscribed:
the sim reads that from the client, not from a copy of its own, and
the client takes no more pushes.
"""

import pytest

from repro.net.pubsub import SubscriptionHub
from repro.sim import InvariantSuite, SimConfig, SimEvent, SimWorld, apply_event
from repro.sim.world import KIND_GATEWAY, KIND_POLL, KIND_PUSH

pytestmark = pytest.mark.sim

CONFIG = SimConfig(premine=3, replicas=2, pollers=1, gateway_clients=1,
                   subscribers=1)


@pytest.mark.parametrize("kind", [KIND_POLL, KIND_GATEWAY, KIND_PUSH])
def test_a_client_partitioned_from_every_replica_is_not_answered(tmp_path, kind):
    world = SimWorld.build(CONFIG, tmp_path)
    suite = InvariantSuite(world)
    slot = next(i for i, entry in enumerate(world.fleet) if entry.kind == kind)
    entry = world.fleet[slot]
    gateway = entry.client.gateway
    query = {"slot": slot, "account": 1, "family": "history", "f1": 0.0, "f2": 1.0}
    assert " ans:" in apply_event(world, SimEvent("query", query))

    for peer in range(1, 1 + len(world.replicas)):  # peer 0 is the issuer
        apply_event(world, SimEvent("partition", {"slot": slot, "peer": peer}))
    # A request never answered before: no cached or stale answer to serve.
    unseen = {**query, "account": 2}
    outcome = apply_event(world, SimEvent("query", unseen))
    assert outcome == f"{entry.name} fail:ServiceUnavailableError"
    assert gateway.failovers >= 1
    assert not gateway.healthy_replicas()
    suite.check(0)

    assert apply_event(world, SimEvent("heal", {})) == f"links={2 * len(world.replicas)}"
    world.bus.run_for(1_000.0)  # let the ejected replicas' probes come due
    assert " ans:" in apply_event(world, SimEvent("query", unseen))
    suite.check(1)


def test_a_lost_unsubscribe_leaves_the_client_unsubscribed(tmp_path):
    """The client owns its subscription: an unsubscribe whose one call
    is lost still leaves it unsubscribed, so the sim skips its
    heartbeats instead of failing them, and the next toggle subscribes."""
    world = SimWorld.build(CONFIG, tmp_path)
    slot = next(i for i, entry in enumerate(world.fleet) if entry.kind == KIND_PUSH)
    entry = world.fleet[slot]
    assert entry.client.subscribed
    push = {"slot": 0}  # the only push client
    apply_event(world, SimEvent("partition", {"slot": slot, "peer": 0}))  # ci
    assert apply_event(world, SimEvent("toggle_sub", push)) == (
        f"{entry.name} fail:RpcTimeoutError"
    )
    assert not entry.client.subscribed
    assert apply_event(world, SimEvent("heartbeat", push)) == "noop"
    apply_event(world, SimEvent("heal", {}))
    assert apply_event(world, SimEvent("heartbeat", push)) == "noop"
    assert apply_event(world, SimEvent("toggle_sub", push)) == f"{entry.name} on"
    assert apply_event(world, SimEvent("heartbeat", push)).startswith(f"{entry.name} h")


def test_after_a_lost_unsubscribe_no_push_is_adopted_and_the_hub_reaps(tmp_path):
    """After ``unsubscribe()`` a push is neither adopted nor acked,
    whatever became of the call: nothing renews the client's lease, so
    the hub reaps it instead of pushing to it for as long as it lives."""
    world = SimWorld.build(CONFIG, tmp_path)
    suite = InvariantSuite(world)
    slot = next(i for i, entry in enumerate(world.fleet) if entry.kind == KIND_PUSH)
    entry = world.fleet[slot]
    push = {"slot": 0}  # the only push client
    apply_event(world, SimEvent("partition", {"slot": slot, "peer": 0}))  # ci
    assert apply_event(world, SimEvent("toggle_sub", push)) == (
        f"{entry.name} fail:RpcTimeoutError"
    )
    apply_event(world, SimEvent("heal", {}))
    assert entry.name in world.hub.subscribers  # the hub never heard
    adopted = entry.client.push_adopted
    start = world.bus.clock_ms
    for index in range(4):  # four certified blocks, 18 s apart
        apply_event(world, SimEvent("drain", {"ms": 18_000.0}))
        apply_event(world, SimEvent("mine", {"txs": 1}))
        assert apply_event(world, SimEvent("certify", {"upto": 1})).startswith("ok:")
        suite.check(index)
    reaped_by = start + 2.4 * SubscriptionHub.LEASE_MS
    world.bus.run_for(max(0.0, reaped_by - world.bus.clock_ms))
    assert entry.name not in world.hub.subscribers
    assert entry.client.push_adopted == adopted
