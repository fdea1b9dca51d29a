"""The subscription hub: a latest-tip stream.

Unit tests for :mod:`repro.net.pubsub` around four properties — a burst
of publishes leaves each subscriber one push in flight and the hub one
announcement, and everyone ends at the tip; a lost push or an expired
lease is healed by one heartbeat; a remounted hub resumes the sequence;
an augmented-only block takes a sequence number but is not pushed —
plus the client side of each flow and the untrusted hub's replies.
"""

import dataclasses
from collections import deque

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
from repro.crypto import ecdsa
from repro.errors import ReproError, ResponseIntegrityError, ServiceUnavailableError
from repro.net import FaultInjector, LinkFaults, MessageBus
from repro.net.gateway import QueryGateway
from repro.net import pubsub, wire
from repro.net.pubsub import SubscriptionHub, TipAnnouncement
from repro.net.rpc import RpcClient, RpcServer
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm, make_kv_tx


@pytest.fixture(scope="module")
def chain(user_keypair):
    """A 12-block KVStore chain the per-test issuers re-certify."""
    builder = ChainBuilder(difficulty_bits=4, network="pubsub")
    nonce = 0
    for _ in range(12):
        builder.add_block([
            make_kv_tx(user_keypair, nonce, f"k{nonce % 3}", f"v{nonce}")
        ])
        nonce += 1
    return builder


class World:
    """A fresh issuer + hub + N subscribed clients over one bus."""

    def __init__(self, chain, *, clients=("c1",), subscribe=True):
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
        self.hub = SubscriptionHub.embedded(self.service)
        self.hub.attach(self.issuer)
        self.measurement = compute_expected_measurement(
            genesis.header.header_hash(), self.ias.public_key, fresh_vm(),
            chain.pow.difficulty_bits, {spec.name: spec},
        )
        self.clients = {name: self.connect(name, subscribe) for name in clients}

    def connect(self, name, subscribe=True, *, keeps_roots=False):
        """A subscriber; tip-only unless ``keeps_roots`` gives it a
        gateway (to a replica no test calls), and with it index roots."""
        gateway = QueryGateway(self.bus, f"{name}-gw", ["sp"]) if keeps_roots else None
        return connect(ClientConfig(
            measurement=self.measurement,
            ias_public_key=self.ias.public_key,
            bus=self.bus, name=name, issuers=("ci",), gateway=gateway, hub="ci",
            subscribe=subscribe,
        ))

    def certify(self, count, *, start=None):
        """Feed the next ``count`` chain blocks through the issuer."""
        start = self.issuer.certified[-1].block.header.height + 1 if start is None else start
        for block in self.chain.blocks[start:start + count]:
            self.issuer.process_block(block)


def world(chain, **kwargs):
    return World(chain, **kwargs)


def lying_hub(w, answer):
    """A hub endpoint that answers subscribe / heartbeat with ``answer(argument)``."""
    liar = RpcServer(w.bus, "liar")
    for method in (SubscriptionHub.SUBSCRIBE, SubscriptionHub.HEARTBEAT):
        liar.register(method, answer)
    return liar


def capture_pushes(client):
    """The payload of every push that reaches ``client``, in order;
    each is still handed to the client."""
    payloads = []
    client.rpc.node.on(
        pubsub.push_topic(client.rpc.name),
        lambda message, on_push=client._on_push: (
            payloads.append(message.payload), on_push(message)
        ),
    )
    return payloads


def tip_only_form(announcement):
    """``announcement`` as a subscriber without a gateway is sent it."""
    return dataclasses.replace(announcement, tip=announcement.tip.without_indexes())


def unchecked(obj, **changes):
    """A copy of a frozen dataclass with fields replaced, past its own
    checks — what a lying peer can put on the wire."""
    forged = object.__new__(type(obj))
    for field in dataclasses.fields(obj):
        object.__setattr__(forged, field.name, changes.get(field.name, getattr(obj, field.name)))
    return forged


# -- the happy path ----------------------------------------------------------


def test_push_delivers_and_client_adopts(chain):
    w = world(chain, clients=())
    client = w.connect("c1", keeps_roots=True)
    w.certify(1, start=1)
    w.bus.run_until_idle()
    w.certify(2)
    w.bus.run_until_idle()
    assert client.latest_header is not None
    assert client.latest_header.height == 3
    # Block 3 was certified while the push of block 2 was unacked: it
    # went out on that ack, one push per ack.
    assert client.push_adopted == 3
    assert client.certified_index_root("history") is not None
    state = w.hub.subscribers["c1"]
    assert state.acked_seq == 3 and state.inflight == 0


def test_push_and_poll_carry_the_same_tip(chain):
    """One tip type on both paths, for both kinds of client: what a push
    announces at a certified height is, byte for byte, what
    ``latest_tip`` answers a client of the same kind for it; the whole
    form is what ``latest_tip`` answers with no argument."""
    w = world(chain, clients=())
    clients = [w.connect("c1"), w.connect("g1", keeps_roots=True)]
    pushed = [capture_pushes(client) for client in clients]
    w.certify(3, start=1)
    w.bus.run_until_idle()
    whole = clients[0].rpc.call("ci", "latest_tip")
    assert wire.encode(w.hub.tip.tip) == wire.encode(whole)
    for client, payloads in zip(clients, pushed):
        announcement = wire.decode(payloads[-1])
        polled = client.rpc.call("ci", "latest_tip", client.tip_only)
        assert polled.header.height == announcement.seq == w.hub.tip.seq == 3
        assert wire.encode(announcement.tip) == wire.encode(polled)
        assert (polled == whole) is not client.tip_only


@pytest.mark.parametrize("keeps_roots", [False, True], ids=["tip-only", "gateway"])
def test_each_kind_is_sent_its_form_by_push_reply_and_poll(chain, keeps_roots):
    """A tip-only subscriber's push, its stream reply and the tip its
    ``sync`` is served carry no index part; a gateway subscriber's carry
    every index the issuer certifies."""
    w = world(chain, clients=())
    client = w.connect("c1", keeps_roots=keeps_roots)
    pushed = capture_pushes(client)
    w.certify(1, start=1)
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c1", LinkFaults(drop_rate=1.0))  # seq 2 is lost
    w.certify(1)
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c1", LinkFaults())
    replied = client.heartbeat().tip
    served = []
    adopt = client.adopt
    client.adopt = lambda tip: (served.append(tip), adopt(tip))[1]
    client.sync()
    (polled,) = served
    assert client.tip_only is not keeps_roots
    indexes = set(w.issuer.certified[-1].index_roots) if keeps_roots else set()
    assert indexes or not keeps_roots
    sent = (wire.decode(pushed[0]).tip, replied.tip, polled)
    assert [tip.header.height for tip in sent] == [1, 2, 2]
    for tip in sent:
        assert set(tip.index_certificates) == set(tip.index_roots) == indexes
    assert client.latest_header.height == 2 and client.push_resyncs == 1


def test_replayed_tip_carrying_new_index_roots_runs_root_housekeeping(chain):
    """A pushed bundle whose tip the client already holds (adopted
    tip-only via validate_chain) still installs its index roots — so
    the cache sweep must run even though the tip did not advance."""
    w = world(chain, clients=())
    client = w.connect("c1", keeps_roots=True)
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


@pytest.mark.parametrize("keeps_roots", [False, True])
def test_a_push_to_a_warm_subscriber_checks_one_signature_per_certificate_kept(
    chain, monkeypatch, keeps_roots
):
    """Once the enclave's report is memoised, a pushed tip costs a
    tip-only subscriber one signature check (its block certificate) and
    leaves it one header and one certificate; a subscriber with a
    gateway checks and keeps the index certificate too."""
    w = world(chain, clients=())
    client = w.connect("c1", keeps_roots=keeps_roots)
    w.certify(1, start=1)
    w.bus.run_until_idle()  # the first push verifies the report
    w.certify(1)  # the issuer's own checks run before the spy is in
    verified = []
    verify_digest = ecdsa.verify_digest
    monkeypatch.setattr(
        ecdsa, "verify_digest",
        lambda *args: verified.append(args) or verify_digest(*args),
    )
    w.bus.run_until_idle()
    assert client.push_adopted == 2 and client.latest_header.height == 2
    tip = w.issuer.certified[-1]
    header_and_certificate = tip.block.header.size_bytes() + tip.certificate.size_bytes()
    if keeps_roots:
        assert len(verified) == 1 + 1
        assert client.storage_bytes() > header_and_certificate
    else:
        assert len(verified) == 1
        assert not client.state.indexes
        assert client.storage_bytes() == header_and_certificate


def test_subscribe_positions_a_new_subscriber_at_the_tip(chain):
    w = world(chain, clients=(), subscribe=False)
    w.certify(4, start=1)
    late = w.connect("late")
    # The subscribe reply carried the newest tip: one round trip, no push.
    assert late._sub_seq == 4 and late.latest_header.height == 4
    assert late.push_resyncs == 1 and late.rpc.calls == 1
    w.bus.run_until_idle()
    assert late.push_duplicates == 0 and w.hub.subscribers["late"].inflight == 0
    # ...and the next certified block is pushed.
    w.certify(1)
    w.bus.run_until_idle()
    assert late.latest_header.height == 5 and late.push_resyncs == 1


def test_every_subscriber_of_a_fanout_converges(chain):
    w = world(chain, clients=("a", "b", "c"))
    w.certify(5, start=1)
    w.bus.run_until_idle()
    for client in w.clients.values():
        assert client.latest_header.height == 5
        # Seq 1 was pushed at once; 2-4 were superseded before its ack.
        assert client.push_adopted == 2
    assert w.hub.published == 5


def test_a_publish_encodes_the_announcement_once_for_all_subscribers(chain, monkeypatch):
    """Eight subscribers, one ``wire.encode`` of the announcement per
    publish, the same bytes to each; a subscriber whose push was lost
    gets the tip in its heartbeat reply, not in a re-encoded push."""
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
    # Seq 3 went out on the acks of seq 2: encoded once, for seven.
    assert encoded == [1, 2, 3]
    assert all(len(got) == 3 for name, got in pushed.items() if name != "c0")
    assert len({tuple(got) for name, got in pushed.items() if name != "c0"}) == 1
    # Every subscriber here is tip-only: the push is the tip-only form.
    assert pushed["c1"][2] == encode(tip_only_form(w.hub.tip))
    # c0 lost seq 2, so seq 3 was never pushed to it; one heartbeat heals.
    w.injector.set_link("ci", "c0", LinkFaults())
    w.clients["c0"].heartbeat()
    w.bus.run_until_idle()
    assert encoded == [1, 2, 3]
    assert w.hub.retransmits == 1
    assert len(pushed["c0"]) == 1
    assert all(c.latest_header.height == 3 for c in w.clients.values())


def test_each_form_is_encoded_once_per_tip_and_only_when_offered(chain, monkeypatch):
    """Two tip-only subscribers and two with gateways: a publish offered
    to both kinds encodes each form once.  A form no subscriber of its
    kind was offered is never encoded, and a stream reply encodes no
    push."""
    w = world(chain, clients=())
    lean = {name: w.connect(name) for name in ("t0", "t1")}
    full = {name: w.connect(name, keeps_roots=True) for name in ("g0", "g1")}
    encoded = []
    encode = pubsub.wire.encode

    def counting_encode(obj):
        if isinstance(obj, TipAnnouncement):
            encoded.append((obj.seq, "whole" if obj.tip.index_roots else "tip-only"))
        return encode(obj)

    monkeypatch.setattr(pubsub.wire, "encode", counting_encode)
    w.certify(1, start=1)
    assert encoded == [(1, "tip-only"), (1, "whole")]
    w.bus.run_until_idle()
    # The gateway subscribers lose seq 2, so seq 3 is offered to neither.
    for name in full:
        w.injector.set_link("ci", name, LinkFaults(drop_rate=1.0))
    w.certify(1)
    w.bus.run_until_idle()
    w.certify(1)
    w.bus.run_until_idle()
    assert encoded[2:] == [(2, "tip-only"), (2, "whole"), (3, "tip-only")]
    # Their heartbeat replies carry seq 3 whole, in the reply.
    for name, client in full.items():
        w.injector.set_link("ci", name, LinkFaults())
        assert client.heartbeat().tip.seq == 3
    assert len(encoded) == 5
    # With no tip-only subscriber left, the tip-only form is not encoded.
    for client in lean.values():
        client.unsubscribe()
    w.certify(1)
    w.bus.run_until_idle()
    assert encoded[5:] == [(4, "whole")]
    assert all(c.latest_header.height == 4 for c in full.values())
    assert all(c.latest_header.height == 3 for c in lean.values())


# -- the stream call's argument ----------------------------------------------


@pytest.mark.parametrize("method", [SubscriptionHub.SUBSCRIBE, SubscriptionHub.HEARTBEAT])
def test_a_stream_call_without_a_bool_kind_is_refused_typed(chain, monkeypatch, method):
    """``(subscriber, acked_seq, tip_only)`` or nothing: a 2-tuple, or a
    kind that is not a ``bool``, is a typed refusal that creates no
    subscriber, moves no state and sends no push."""
    w = world(chain)
    w.certify(2, start=1)
    w.bus.run_until_idle()
    caller = RpcClient(w.bus, "mallory")
    states = {
        name: [getattr(state, slot) for slot in type(state).__slots__]
        for name, state in w.hub.subscribers.items()
    }
    topics = []
    send = w.bus.send
    monkeypatch.setattr(
        w.bus, "send",
        lambda sender, target, topic, message: (
            topics.append(topic), send(sender, target, topic, message)
        )[1],
    )
    for name in ("c1", "mallory"):
        for argument in ((name, 0), (name, 0, 1), (name, 0, None), (name, 0, "x")):
            with pytest.raises(ServiceUnavailableError, match="tip_only"):
                caller.call("ci", method, argument)
    assert not any(topic.startswith("push:") for topic in topics)
    assert {
        name: [getattr(state, slot) for slot in type(state).__slots__]
        for name, state in w.hub.subscribers.items()
    } == states


# -- one push in flight, one announcement held -------------------------------


def test_ack_window_bounds_inflight_pushes(chain):
    """Ten publishes to a stalled subscriber (nothing delivered yet):
    one push in flight, no container per subscriber, one announcement in
    the hub; after the drain every subscriber is at the tip."""
    w = world(chain, clients=("a", "b"))
    w.certify(10, start=1)
    for state in w.hub.subscribers.values():
        assert state.inflight == 1 and state.acked_seq == 0
        assert not hasattr(state, "__dict__")
        assert not any(
            isinstance(getattr(state, name), (list, tuple, dict, set, deque))
            for name in type(state).__slots__
        )
    held = [v for v in vars(w.hub).values() if isinstance(v, TipAnnouncement)]
    assert [a.seq for a in held] == [10]
    for value in vars(w.hub).values():
        if isinstance(value, (list, tuple, dict, set, deque)):
            members = value.values() if isinstance(value, dict) else value
            assert not any(isinstance(m, TipAnnouncement) for m in members)
    w.bus.run_until_idle()
    for name, client in w.clients.items():
        assert client.latest_header.height == 10
        assert client.push_adopted == 2  # seq 1, then seq 10 on its ack
        assert w.hub.subscribers[name].acked_seq == 10


# -- loss recovery -----------------------------------------------------------


def test_heartbeat_retransmits_lost_inflight_pushes(chain):
    w = world(chain)
    client = w.clients["c1"]
    # Every push to the client vanishes in flight.
    w.injector.set_link("ci", "c1", LinkFaults(drop_rate=1.0))
    w.certify(2, start=1)
    w.bus.run_until_idle()
    assert client.latest_header is None
    state = w.hub.subscribers["c1"]
    assert state.inflight == 1  # seq 2 waits for an ack that never comes
    # The link heals; one heartbeat (one RPC) reports acked_seq=0 and
    # its reply carries the newest tip.
    w.injector.set_link("ci", "c1", LinkFaults())
    calls = client.rpc.calls
    reply = client.heartbeat()
    assert client.rpc.calls == calls + 1
    assert reply.tip.seq == 2 and reply.subscribed
    assert client.latest_header.height == 2 and client.push_resyncs == 1
    assert w.hub.retransmits == 1
    assert state.acked_seq == 2 and state.inflight == 0
    # The stream resumes at once.
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 3


def test_lease_expiry_reaps_silent_subscribers(chain, monkeypatch):
    monkeypatch.setattr(SubscriptionHub, "LEASE_MS", 500.0)
    w = world(chain)
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
    # Its next heartbeat's reply carries the tip and says it was reaped;
    # the client adopts the tip and subscribes again.
    reply = client.heartbeat()
    assert reply.subscribed is False and reply.tip.seq == 2
    assert client.latest_header.height == 2
    assert "c1" in w.hub.subscribers
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 3


def test_departed_subscriber_is_reaped_on_send_failure(chain):
    w = world(chain, clients=())
    w.hub._subscribe(("ghost", 0, True))  # never joined the bus
    assert "ghost" in w.hub.subscribers
    w.certify(1, start=1)
    assert "ghost" not in w.hub.subscribers
    assert w.hub.reaped == 1


def test_gap_defers_resync_to_the_next_heartbeat(chain):
    """A block certified while the push before it is lost is not pushed
    (that push is still unacked); the next heartbeat brings the newest."""
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c1", LinkFaults(drop_rate=1.0))
    w.certify(1)
    w.bus.run_until_idle()
    w.injector.set_link("ci", "c1", LinkFaults())
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 1
    client.heartbeat()
    assert client.latest_header.height == 3
    assert client._sub_seq == w.hub.seq == 3


def test_resubscribing_behind_the_tip_catches_up_on_next_heartbeat(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(2, start=1)
    w.bus.run_until_idle()
    client.unsubscribe()
    w.certify(2)
    w.bus.run_until_idle()
    assert client.latest_header.height == 2
    client.subscribe()
    client.heartbeat()
    w.bus.run_until_idle()
    assert client.latest_header.height == 4
    assert client._sub_seq == w.hub.seq == 4


def test_a_subscriber_past_the_stream_is_brought_back_by_one_heartbeat(chain):
    """A seq is not certified: a corrupted push can carry a genuine tip
    under a seq the hub never reached.  The hub's numbering wins, so
    the stream does not stall behind it."""
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()
    client._sub_seq = 99
    client.heartbeat()
    assert client._sub_seq == 1 and w.hub.subscribers["c1"].acked_seq == 1
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 2


# -- the hub is untrusted ----------------------------------------------------


def test_a_heartbeat_reply_that_is_not_a_stream_reply_is_an_integrity_error(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()
    lying_hub(w, lambda _argument: "all good")
    client.hub = "liar"
    before = client.to_json()
    with pytest.raises(ResponseIntegrityError):
        client.heartbeat()
    assert client.to_json() == before and client._sub_seq == 1


def test_a_heartbeat_reply_with_a_non_int_latest_seq_is_an_integrity_error(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(2, start=1)
    w.bus.run_until_idle()
    lying_hub(w, lambda argument: unchecked(w.hub._heartbeat(argument), latest_seq="7"))
    client.hub = "liar"
    before = client.to_json()
    with pytest.raises(ResponseIntegrityError):
        client.heartbeat()
    assert client.to_json() == before and client._sub_seq == 2


# -- stream semantics --------------------------------------------------------


def test_augmented_only_blocks_consume_a_seq_without_a_push(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(1, start=1)
    w.bus.run_until_idle()

    class AugmentedOnly:
        certificate = None

    before = w.hub.seq
    assert w.hub.publish(AugmentedOnly()) is None
    assert w.hub.seq == before + 1
    assert w.hub.published == 1 and w.hub.tip.seq == before
    assert w.hub.subscribers["c1"].inflight == 0
    # The client holds the newest announcement; a heartbeat brings nothing.
    assert client.heartbeat().tip is None
    assert client._sub_seq == before


def test_hub_restart_resumes_the_sequence(chain):
    w = world(chain)
    client = w.clients["c1"]
    w.certify(2, start=1)
    w.bus.run_until_idle()
    w.hub.detach()
    # A replacement hub on a fresh endpoint resumes where the issuer
    # is, instead of rewinding the stream to seq 0; its tip is the
    # issuer's newest certified block.
    hub2 = SubscriptionHub(w.bus, "hub2")
    hub2.attach(w.issuer)
    assert hub2.seq == 2
    assert hub2.tip.seq == 2 and hub2.tip.tip == w.issuer.certified[-1].tip
    # The client re-subscribes to the new endpoint and the stream
    # continues seamlessly.
    client.subscribe(hub="hub2")
    assert client.push_resyncs == 0 and client._sub_seq == 2
    w.certify(1)
    w.bus.run_until_idle()
    assert client.latest_header.height == 3
    assert hub2.subscribers["c1"].acked_seq == 3


# -- construction ------------------------------------------------------------


def test_constructor_takes_exactly_one_transport(chain):
    bus = MessageBus()
    with pytest.raises(ValueError):
        SubscriptionHub()
    with pytest.raises(ValueError):
        SubscriptionHub(bus, server=IssuerService(bus, "x", object()).server)


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
