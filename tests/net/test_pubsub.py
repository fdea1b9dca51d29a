"""The subscription hub: windowed delivery, backpressure, catch-up.

Unit tests for :mod:`repro.net.pubsub` mechanics — the ack window,
drop-oldest overflow with LagNotice, heartbeat retransmission, lease
reaping, sequence continuity across a hub restart — plus the client
side of each flow (gap detection, deferred resync, re-subscribe).
"""

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.errors import ReproError
from repro.net import FaultInjector, LinkFaults, MessageBus
from repro.net.gateway import QueryGateway
from repro.net import pubsub
from repro.net.pubsub import SubscriptionHub, TipAnnouncement
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm, make_kv_tx


@pytest.fixture(scope="module")
def chain(user_keypair):
    """An 8-block KVStore chain the per-test issuers re-certify."""
    builder = ChainBuilder(difficulty_bits=4, network="pubsub")
    nonce = 0
    for _ in range(8):
        builder.add_block([
            make_kv_tx(user_keypair, nonce, f"k{nonce % 3}", f"v{nonce}")
        ])
        nonce += 1
    return builder


class World:
    """A fresh issuer + hub + N subscribed clients over one bus."""

    def __init__(self, chain, *, clients=("c1",), subscribe=True, **hub_kwargs):
        self.chain = chain
        self.bus = MessageBus(default_latency_ms=5.0)
        self.injector = FaultInjector(seed=77)
        self.bus.install_faults(self.injector)
        spec = AccountHistoryIndexSpec(name="history")
        genesis, state = make_genesis(network="pubsub")
        self.ias = AttestationService(seed=b"pubsub-ias")
        self.issuer = CertificateIssuer(
            genesis, state, fresh_vm(), chain.pow,
            index_specs=[spec], ias=self.ias, key_seed=b"pubsub-enclave",
        )
        self.service = IssuerService(self.bus, "ci", self.issuer)
        self.hub = SubscriptionHub.embedded(self.service, **hub_kwargs)
        self.hub.attach(self.issuer)
        self.measurement = compute_expected_measurement(
            genesis.header.header_hash(), self.ias.public_key, fresh_vm(),
            chain.pow.difficulty_bits, {spec.name: spec},
        )
        self.clients = {
            name: connect(ClientConfig(
                measurement=self.measurement,
                ias_public_key=self.ias.public_key,
                bus=self.bus, name=name, issuers=("ci",), hub="ci",
                subscribe=subscribe,
            ))
            for name in clients
        }

    def certify(self, count, *, start=None):
        """Feed the next ``count`` chain blocks through the issuer."""
        start = self.issuer.certified[-1].block.header.height + 1 if start is None else start
        for block in self.chain.blocks[start:start + count]:
            self.issuer.process_block(block)


def world(chain, **kwargs):
    return World(chain, **kwargs)


# -- the happy path ----------------------------------------------------------


def test_push_delivers_and_client_adopts(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(3, start=1)
    w.bus.run_until_idle()
    assert client.latest_header is not None
    assert client.latest_header.height == 3
    assert client.push_adopted == 3
    assert client.certified_index_root("history") is not None
    state = w.hub.subscribers["c1"]
    assert state.acked_seq == 3 and not state.inflight and not state.outbox


def test_replayed_tip_carrying_new_index_roots_runs_root_housekeeping(chain):
    """A pushed bundle whose tip the client already holds (adopted
    tip-only via validate_chain) still installs its index roots — so
    the cache sweep / gateway re-verification must run even though the
    tip did not advance."""
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    tip = w.issuer.certified[-1]
    assert client.validate_chain(tip.block.header, tip.certificate)
    swept = []
    advanced = client._roots_advanced
    client._roots_advanced = lambda: (swept.append(True), advanced())
    w.bus.run_until_idle()  # the push for the same block lands now
    assert client.push_adopted == 0  # verified, but the tip did not move
    assert client.certified_index_root("history") == tip.index_roots["history"]
    assert swept == [True]


def test_subscribe_positions_a_new_subscriber_at_the_tip(chain):
    w = world(chain, clients=(), subscribe=False)
    w.certify(4, start=1)
    late = connect(ClientConfig(
        measurement=w.measurement, ias_public_key=w.ias.public_key,
        bus=w.bus, name="late", issuers=("ci",), hub="ci", subscribe=True,
    ))
    # Subscribing does not replay the past: the stream starts at seq 4.
    assert late._sub_seq == 4
    w.bus.run_until_idle()
    assert late.push_adopted == 0 and late.latest_header is None
    # ...but the next certified block is pushed.
    w.certify(1)
    w.bus.run_until_idle()
    assert late.push_adopted == 1 and late.latest_header.height == 5


def test_every_subscriber_of_a_fanout_converges(chain):
    w = world(chain, clients=("a", "b", "c"))
    w.certify(5, start=1)
    w.bus.run_until_idle()
    for client in w.clients.values():
        assert client.latest_header.height == 5
        assert client.push_adopted == 5
    assert w.hub.published == 5


def test_a_publish_encodes_the_announcement_once_for_all_subscribers(chain, monkeypatch):
    """Eight subscribers, one ``wire.encode`` of the announcement per
    publish (it was one per subscriber), the same bytes to each; a
    retransmit of an older announcement re-encodes it and still lands."""
    names = tuple(f"c{i}" for i in range(8))
    w = world(chain, clients=names)
    encoded, pushed = [], {name: [] for name in names}
    encode = pubsub.wire.encode

    def counting_encode(obj):
        if isinstance(obj, TipAnnouncement):
            encoded.append(obj.seq)
        return encode(obj)

    monkeypatch.setattr(pubsub.wire, "encode", counting_encode)
    for name, client in w.clients.items():
        client.rpc.node.on(
            pubsub.push_topic(name),
            lambda message, on_push=client._on_push, got=pushed[name]: (
                got.append(message.payload), on_push(message)
            ),
        )
    w.certify(1, start=1)
    assert encoded == [1]
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c0", LinkFaults(drop_rate=1.0))
    w.certify(2)
    w.bus.run_until_idle()
    assert encoded == [1, 2, 3]
    assert all(len(got) == 3 for name, got in pushed.items() if name != "c0")
    assert len({tuple(got) for name, got in pushed.items() if name != "c0"}) == 1
    assert pushed["c1"][2] == encode(w.hub._history[3])
    # c0 lost seq 2 and 3; the heartbeat has the hub send both again.
    w.injector.set_link("ci", "c0", LinkFaults())
    w.clients["c0"].heartbeat()
    w.bus.run_until_idle()
    assert w.hub.subscribers["c0"].retransmits == 2
    assert pushed["c0"] == pushed["c1"]
    assert all(c.latest_header.height == 3 for c in w.clients.values())


# -- windowing and backpressure ----------------------------------------------


def test_ack_window_bounds_inflight_pushes(chain):
    w = world(chain, window=2, outbox_limit=8)
    # Publish 5 announcements before the bus delivers anything: only
    # the window may be in flight, the rest queue in the outbox.
    w.certify(5, start=1)
    state = w.hub.subscribers["c1"]
    assert len(state.inflight) == 2
    assert list(state.outbox) == [3, 4, 5]
    # Acks drain the queue window-by-window to full delivery.
    w.bus.run_until_idle()
    assert not state.inflight and not state.outbox
    assert w.clients["c1"].latest_header.height == 5
    assert state.delivered == 5


def test_outbox_overflow_drops_oldest_and_marks_lagged(chain):
    w = world(chain, window=1, outbox_limit=2)
    client = w.clients["c1"]
    w.certify(5, start=1)  # 1 in flight, 2 queued, then overflow
    state = w.hub.subscribers["c1"]
    assert state.lagged
    assert state.dropped_oldest >= 1
    w.certify(1)  # published while lagged: skipped, not queued
    assert state.skipped_while_lagged >= 1
    w.bus.run_until_idle()
    # The client saw the LagNotice (or the seq gap) and deferred the
    # pull — push handlers never issue blocking RPC.
    assert client._needs_resync
    assert client.latest_header.height < 6
    client.heartbeat()
    w.bus.run_until_idle()
    assert client.latest_header.height == 6
    assert client.push_resyncs >= 1
    assert w.hub.resyncs >= 1
    assert not w.hub.subscribers["c1"].lagged


def test_sync_range_serves_bounded_history(chain):
    w = world(chain, clients=(), history_limit=3)
    w.certify(7, start=1)
    reply = w.hub._sync_range(1)
    assert reply.latest_seq == 7
    assert reply.oldest_retained == 5  # 7 - history_limit + 1
    assert [a.seq for a in reply.announcements] == [5, 6, 7]
    # A truncated range still fully syncs a superlight client: the
    # newest announcement is self-sufficient.
    assert reply.announcements[-1].header.height == 7


# -- loss recovery -----------------------------------------------------------


def test_heartbeat_retransmits_lost_inflight_pushes(chain):
    w = world(chain, window=4)
    client = w.clients["c1"]
    # Every push to the client vanishes in flight.
    w.injector.set_link("ci", "c1", LinkFaults(drop_rate=1.0))
    w.certify(2, start=1)
    w.bus.run_until_idle()
    assert client.latest_header is None
    state = w.hub.subscribers["c1"]
    assert state.inflight == {1, 2}
    # The link heals; the heartbeat reports acked_seq=0, the hub
    # requeues the lost window and the stream catches the client up.
    w.injector.set_link("ci", "c1", LinkFaults())
    client.heartbeat()
    w.bus.run_until_idle()
    assert state.retransmits == 2
    assert client.latest_header.height == 2
    assert w.hub.subscribers["c1"].acked_seq == 2


def test_lease_expiry_reaps_silent_subscribers(chain):
    w = world(chain, lease_ms=500.0)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 1
    # The client goes silent past its lease; the next publish reaps it.
    w.bus.run_for(2_000.0)
    w.certify(1)
    assert "c1" not in w.hub.subscribers
    assert w.hub.reaped == 1
    w.bus.run_until_idle()
    assert client.latest_header.height == 1  # nothing was pushed
    # Its next heartbeat discovers the eviction and recovers fully.
    reply = client.heartbeat()
    w.bus.run_until_idle()
    assert reply.subscribed is False
    assert "c1" in w.hub.subscribers
    assert client.latest_header.height == 2


def test_departed_subscriber_is_reaped_on_send_failure(chain):
    w = world(chain, clients=())
    w.hub._subscribe("ghost")  # never joined the bus
    assert "ghost" in w.hub.subscribers
    w.certify(1, start=1)
    assert "ghost" not in w.hub.subscribers
    assert w.hub.reaped == 1


# -- stream semantics --------------------------------------------------------


def test_augmented_only_blocks_consume_a_seq_without_a_push(chain):
    w = world(chain, clients=())

    class AugmentedOnly:
        certificate = None

    before = w.hub.seq
    assert w.hub.publish(AugmentedOnly()) is None
    assert w.hub.seq == before + 1
    assert w.hub.published == 0


def test_gap_defers_resync_to_the_next_heartbeat(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()
    # The push for seq 2 is lost in flight; seq 3 then arrives as a
    # gap from the client's view.
    w.injector.set_link("ci", "c1", LinkFaults(drop_rate=1.0))
    w.certify(1)
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c1", LinkFaults())
    w.certify(1)
    w.bus.run_until_idle()
    assert client.push_gaps >= 1
    assert client._needs_resync
    assert client.latest_header.height == 1
    client.heartbeat()
    w.bus.run_until_idle()
    assert client.latest_header.height == 3
    assert client._sub_seq == w.hub.seq == 3


def test_hub_restart_resumes_the_sequence(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(2, start=1)
    w.bus.run_until_idle()
    w.hub.detach()
    # A replacement hub on a fresh endpoint resumes where the issuer
    # is, instead of rewinding the stream to seq 0.
    hub2 = SubscriptionHub(w.bus, "hub2")
    hub2.attach(w.issuer, announce_existing=True)
    assert hub2.seq == 2
    reply = hub2._sync_range(1)
    assert [a.seq for a in reply.announcements] == [1, 2]
    # The client re-subscribes to the new endpoint and the stream
    # continues seamlessly.
    client.subscribe(hub="hub2")
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 3
    assert hub2.subscribers["c1"].acked_seq == 3



def test_attach_history_counts_announcements_not_heights(chain):
    # Blocks certified under the augmented scheme alone take a height but
    # no announcement; a hub attached afterwards still retains the
    # newest history_limit announcements, found below them.
    w = World(chain, clients=())
    for block in chain.blocks[1:5]:
        w.issuer.process_block(block, schemes=("hierarchical", "augmented"))
    for block in chain.blocks[5:9]:
        w.issuer.process_block(block, schemes=("augmented",))
    hub2 = SubscriptionHub(w.bus, "hub2", history_limit=3)
    hub2.attach(w.issuer, announce_existing=True)
    assert hub2.seq == 8
    reply = hub2._sync_range(1)
    assert [a.seq for a in reply.announcements] == [2, 3, 4]


# -- construction ------------------------------------------------------------


def test_constructor_takes_exactly_one_transport(chain):
    bus = MessageBus()
    with pytest.raises(ValueError):
        SubscriptionHub()
    with pytest.raises(ValueError):
        SubscriptionHub(bus, server=IssuerService(bus, "x", object()).server)
    with pytest.raises(ValueError):
        SubscriptionHub(bus, outbox_limit=0)


def test_embedded_beside_a_gateway_gets_a_sibling_endpoint():
    bus = MessageBus()
    gateway = QueryGateway(bus, "gw", ["sp1"])
    hub = SubscriptionHub.embedded(gateway)
    assert hub.name == "gw.hub"
    assert hub.bus is bus
    with pytest.raises(ValueError):
        SubscriptionHub.embedded(object())


def test_attach_requires_an_on_certified_hook(chain):
    w = world(chain, clients=())
    with pytest.raises(ReproError):
        w.hub.attach(object())
