"""Chaos for the push tier: lossy links and a burst behind dead links.

Hub crashes at the ``pubsub.*`` crashpoints, the partial fan-out
included, are cases of the crash sweep (tests/fault/test_chaos_sweep.py):
the supervisor restarts the issuer, remounts a hub on the same
endpoint, and every subscriber converges through one heartbeat.

The invariant throughout: chaos may delay tips, it must never forge
them — a client only ever adopts announcements that pass the standard
certificate checks.
"""

import pytest

from repro.chain import ChainBuilder
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.net import FaultInjector, LinkFaults, MessageBus
from repro.net.pubsub import SubscriptionHub
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.chain.genesis import make_genesis
from tests.conftest import fresh_vm, make_kv_tx

pytestmark = pytest.mark.chaos

CLIENTS = ("c1", "c2", "c3")


@pytest.fixture(scope="module")
def chain(user_keypair):
    builder = ChainBuilder(difficulty_bits=4, network="pubsub-chaos")
    nonce = 0
    for _ in range(10):
        builder.add_block([
            make_kv_tx(user_keypair, nonce, f"k{nonce % 3}", f"v{nonce}")
        ])
        nonce += 1
    return builder


def build_world(chain):
    bus = MessageBus(default_latency_ms=5.0)
    injector = FaultInjector(seed=23)
    bus.install_faults(injector)
    spec = AccountHistoryIndexSpec(name="history")
    genesis, state = make_genesis(network="pubsub-chaos")
    ias = AttestationService(seed=b"pubsub-chaos-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), chain.pow,
        index_specs=[spec], ias=ias, key_seed=b"pubsub-chaos-enclave",
    )
    service = IssuerService(bus, "ci", issuer)
    hub = SubscriptionHub.embedded(service)
    hub.attach(issuer)
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        chain.pow.difficulty_bits, {spec.name: spec},
    )
    clients = [
        connect(ClientConfig(
            measurement=measurement, ias_public_key=ias.public_key,
            bus=bus, name=name, issuers=("ci",), hub="ci", subscribe=True,
        ))
        for name in CLIENTS
    ]
    return bus, injector, issuer, service, hub, clients


def converge(bus, clients):
    """Drain the bus, then run one heartbeat round and drain again."""
    bus.run_until_idle()
    for client in clients:
        client.heartbeat()
    bus.run_until_idle()


def test_lossy_links_never_forge_only_delay(chain):
    """30% loss in both directions on every subscriber link: with
    heartbeats, every client still converges, and no announcement is
    ever adopted unverified."""
    from repro.errors import NetworkError

    bus, injector, issuer, service, hub, clients = build_world(chain)
    for name in CLIENTS:
        injector.set_link("ci", name, LinkFaults(drop_rate=0.3))
        injector.set_link(name, "ci", LinkFaults(drop_rate=0.3))

    for block in chain.blocks[1:8]:
        issuer.process_block(block)
        bus.run_until_idle()
        for client in clients:
            try:
                client.heartbeat()
            except NetworkError:
                pass  # a heartbeat lost to the storm; the next one lands
        bus.run_until_idle()

    # The storm passes; one clean heartbeat round converges everyone.
    for name in CLIENTS:
        injector.set_link("ci", name, LinkFaults())
        injector.set_link(name, "ci", LinkFaults())
    converge(bus, clients)

    for client in clients:
        assert client.latest_header.height == 7
        assert client.push_rejected == 0
        # Loss shows up as replies carrying the tip, never as forged tips.
        assert client.push_adopted + client.push_resyncs > 0
    summary = injector.summary()
    assert any(counts.get("dropped", 0) for counts in summary.values())


def test_burst_lags_every_subscriber_then_one_heartbeat_recovers(chain):
    """A burst certified while every push is lost: each subscriber is
    left behind with one unacked push and the hub holds one
    announcement, not a backlog; one heartbeat round later everyone is
    at the tip, each through one reply."""
    bus, injector, issuer, service, hub, clients = build_world(chain)
    for name in CLIENTS:
        injector.set_link("ci", name, LinkFaults(drop_rate=1.0))
    # The burst: publish 6 blocks before any delivery happens.
    for block in chain.blocks[1:7]:
        issuer.process_block(block)
    for client in clients:
        assert hub.subscribers[client.rpc.name].inflight == 1
    assert hub.tip.seq == 6
    bus.run_until_idle()
    assert all(c.latest_header is None for c in clients)
    for name in CLIENTS:
        injector.set_link("ci", name, LinkFaults())
    converge(bus, clients)
    for client in clients:
        assert client.latest_header.height == 6
        assert client.push_resyncs == 1 and client.push_rejected == 0
        assert hub.subscribers[client.rpc.name].inflight == 0
    assert hub.retransmits == len(clients)
