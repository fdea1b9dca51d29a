"""Forged push announcements: single-byte mutations never move a tip.

The push stream's security argument is that the hub is untrusted
plumbing: a :class:`~repro.net.pubsub.PushEnvelope` carries the
canonical wire encoding of a :class:`~repro.net.pubsub.TipAnnouncement`
and the subscriber re-verifies every certificate inside before any
client state moves.  These properties deliver single-byte mutations of
a genuine envelope payload straight into the client's push handler and
assert the client never ends up in a state the forger controls:

* the adopted tip is only ever the genuine certified next header (a
  mutation that leaves the certified material intact — e.g. a flip in
  the publish timestamp — still carries the enclave's own statement);
* every index root the client holds afterwards is one the enclave
  certified;
* a payload that fails verification is rejected *atomically*: counted
  in ``push_rejected``, not acked, and the client state is
  byte-identical to before.

The same holds for the tip a hub's :class:`~repro.net.pubsub.StreamReply`
carries (a lying hub answering ``heartbeat``): one mutation plan, two
ways in.

The same forged bundles are then served over the polled path (a lying
issuer's ``latest_tip``) and handed to an in-process client's ``adopt``:
every path adopts through the one ``SuperlightClient.adopt``, so a
forgery anywhere in the bundle leaves ``to_json()`` byte-identical on
all of them — never a header at N with index roots at N-1.

Nor does a forgery buy precomputation: a ``pk_enc`` gets a pinned
verification table only once an IAS-signed report for the expected
program vouches for it, so the table cache holds the same keys after
any forged bundle as before.

The probes above have a gateway, so they keep (and verify) every index
root of a tip.  A connected client without one is tip-only: it keeps
the header and block certificate alone.  The last two properties give
it the same forgeries: a forged index part never reaches its state and
costs it nothing, a forged block certificate is rejected and counted.

Seeds and replay: see tests/proptest/framework.py.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from dataclasses import replace

from repro.core import Certificate, CertifiedTip, ClientConfig, IssuerService, connect
from repro.core.certificate import CERT_SIG_DOMAIN, VerifiedMemo
from repro.core.superlight import ClientState, adopt_bundle
from repro.crypto import ecdsa, generate_keypair, sign
from repro.errors import (
    CertificateError,
    ResponseIntegrityError,
    ServiceUnavailableError,
    WireError,
)
from repro.net.bus import MessageBus
from repro.net.gateway import QueryGateway
from repro.net.pubsub import PushEnvelope, StreamReply, SubscriptionHub, TipAnnouncement
from repro.net.rpc import RpcServer
from repro.net import wire
from tests.proptest import mutate
from tests.proptest.framework import mutate_one_byte, run_cases


@pytest.fixture(scope="module")
def world(certified_setup):
    """The certified kv_chain issuer behind a hub endpoint, plus the
    genuine announcement for the tip a probe client has not seen."""
    issuer = certified_setup["issuer"]
    bus = MessageBus()
    service = IssuerService(bus, "ci", issuer)
    hub = SubscriptionHub.embedded(service)
    # A lying issuer endpoint: serves whatever tip the case planted.
    liar_tip = []
    RpcServer(bus, "liar").register("latest_tip", lambda _arg: liar_tip[-1])
    # A lying hub endpoint: answers the stream with the planted reply.
    liar_reply = []
    liar_hub = RpcServer(bus, "liarhub")
    for method in (SubscriptionHub.SUBSCRIBE, SubscriptionHub.HEARTBEAT):
        liar_hub.register(method, lambda _arg: liar_reply[-1])
    # The probe sits at the second-to-last certified block (seq N-1);
    # the genuine announcement under test carries the last one (seq N).
    seq = len(issuer.certified)
    announcement = TipAnnouncement(
        seq=seq, published_at_ms=0.0, tip=issuer.certified[-1].tip
    )
    certified_roots = {
        root
        for certified in issuer.certified
        for root in certified.index_roots.values()
    }
    # What the hub sends a subscriber without a gateway.
    tip_only = replace(announcement, tip=announcement.tip.without_indexes())
    return {
        "bus": bus,
        "hub": hub,
        "liar_tip": liar_tip,
        "liar_reply": liar_reply,
        "issuer": issuer,
        "setup": certified_setup,
        "seq": seq,
        "announcement": announcement,
        "payload": wire.encode(announcement),
        "reply_payload": wire.encode(
            StreamReply(latest_seq=seq, subscribed=True, tip=announcement)
        ),
        "tip_only_payload": wire.encode(tip_only),
        "tip_only_reply_payload": wire.encode(
            StreamReply(latest_seq=seq, subscribed=True, tip=tip_only)
        ),
        "certified_roots": certified_roots,
    }


def _make_probe(world, rng, prefix, issuers=("ci",), *, tip_only=False):
    """A fresh subscribed-at-seq-N-1 client (never reused across cases:
    a rejected forgery must not poison later cases' state).  It has a
    gateway, so it keeps (and verifies) every index root of a tip,
    unless ``tip_only``: then it keeps the header and certificate only."""
    setup = world["setup"]
    issuer = world["issuer"]
    name = f"{prefix}-{rng.randrange(1 << 48):012x}"
    probe = connect(ClientConfig(
        measurement=issuer.measurement,
        ias_public_key=setup["ias"].public_key,
        bus=world["bus"],
        name=name,
        issuers=issuers,
        gateway=None if tip_only else _gateway(world, name),
        hub="ci",
    ))
    probe.adopt(issuer.certified[-2].tip)
    probe.subscribed = True
    probe._sub_seq = world["seq"] - 1
    return probe


def _gateway(world, name):
    """A gateway to a replica no case calls: what makes a connected
    client keep index roots."""
    return QueryGateway(world["bus"], f"{name}-gw", ["sp"])


def _forges_certified_material(candidate, genuine) -> bool:
    """True when the mutation tampered with an enclave-signed statement.

    Flips that survive verification are the ones that forge nothing:
    the seq, the timestamp, an index *name* (the digest binds header
    and root, not the label), or an *omitted* entry (the client can
    only verify what is present; omission degrades freshness, it
    installs nothing forged).  Everything else must be rejected."""
    if (
        candidate.header != genuine.header
        or candidate.certificate != genuine.certificate
    ):
        return True
    genuine_certs = {c.encode() for c in genuine.index_certificates.values()}
    genuine_roots = set(genuine.index_roots.values())
    candidate_certs = {
        c.encode() for c in candidate.index_certificates.values()
    }
    candidate_roots = set(candidate.index_roots.values())
    return not (
        candidate_certs <= genuine_certs and candidate_roots <= genuine_roots
    )


#: The two forms of a pushed tip, each to the kind of client the hub sends
#: it to: ``(payload key, reply payload key, tip_only)``.
_FORMS = {
    "whole": ("payload", "reply_payload", False),
    "tip-only": ("tip_only_payload", "tip_only_reply_payload", True),
}


def test_the_tip_only_push_at_two_indexes_is_under_two_kilobytes(world):
    """Header, block certificate and stream position only: the index
    parts the whole form carries are neither sent, verified nor kept."""
    assert len(world["announcement"].tip.index_roots) == 2
    assert len(world["tip_only_payload"]) <= 2_000 < len(world["payload"])


def test_mutated_announcements_never_move_a_tip_unverified(world):
    _mutated_announcements_never_move_a_tip_unverified(world, "whole")


def test_mutated_tip_only_announcements_never_move_a_tip_unverified(world):
    """The same property over the form a client without a gateway is sent."""
    _mutated_announcements_never_move_a_tip_unverified(world, "tip-only")


def _mutated_announcements_never_move_a_tip_unverified(world, form):
    genuine = world["announcement"].tip
    payload_key, _reply_key, tip_only = _FORMS[form]
    payload = world[payload_key]
    prev_header = world["issuer"].certified[-2].block.header

    def prop(rng):
        mutated = mutate_one_byte(payload, rng)
        probe = _make_probe(world, rng, f"tipprobe-{form}", tip_only=tip_only)
        before_state = probe.to_json()
        pinned_before = set(ecdsa._pinned)
        probe._on_push(PushEnvelope(payload=mutated))

        # Only the genuine pk_enc (pinned when the probe adopted N-1)
        # ever has a table: a flip inside pk_enc fails the report binding.
        assert set(ecdsa._pinned) == pinned_before, (
            "a mutated announcement got a key pinned"
        )
        # The tip is only ever where it was, or at the genuine header.
        assert probe.latest_header in (prev_header, genuine.header), (
            "a mutated announcement installed a forged tip"
        )
        if probe.latest_header == genuine.header:
            assert probe.latest_certificate == genuine.certificate
        # Index roots are always enclave-certified ones.
        for _height, root, _cert in probe.state.indexes.values():
            assert root in world["certified_roots"], (
                "a mutated announcement installed an uncertified index root"
            )
        # Rejections are atomic and counted.
        if probe.push_rejected:
            assert probe.to_json() == before_state, (
                "a rejected announcement left client state behind"
            )
            assert probe._sub_seq == world["seq"] - 1
        # The stream position moves only with the genuine tip (its seq is
        # not certified: a flip there still carries the enclave's tip).
        if probe._sub_seq != world["seq"] - 1:
            assert probe.latest_header == genuine.header

    run_cases(prop)


def _heartbeat_with(probe, world, reply):
    """``probe.heartbeat()`` against a hub that answers ``reply``."""
    world["liar_reply"].append(reply)
    probe.hub = "liarhub"
    try:
        return probe.heartbeat()
    finally:
        world["liar_reply"].clear()


def test_mutated_stream_replies_never_move_a_tip_unverified(world):
    """The announcement inside a heartbeat reply, under the same
    single-byte mutations: what does not decode is a
    ``ResponseIntegrityError`` before anything is read, what is not a
    ``StreamReply`` too, and a tip is adopted only if it verifies —
    otherwise counted, with the state byte-identical."""
    _mutated_stream_replies_never_move_a_tip_unverified(world, "whole")


def test_mutated_tip_only_stream_replies_never_move_a_tip_unverified(world):
    """The same property over a reply carrying the tip-only form."""
    _mutated_stream_replies_never_move_a_tip_unverified(world, "tip-only")


def _mutated_stream_replies_never_move_a_tip_unverified(world, form):
    genuine = world["announcement"].tip
    _payload_key, reply_key, tip_only = _FORMS[form]
    prev_header = world["issuer"].certified[-2].block.header

    def prop(rng):
        mutated = mutate_one_byte(world[reply_key], rng)
        try:
            reply = wire.decode(mutated)
        except WireError:
            return  # RpcClient.resolve: a ResponseIntegrityError, see test_rpc
        probe = _make_probe(world, rng, f"replyprobe-{form}", tip_only=tip_only)
        before_state = probe.to_json()
        if not isinstance(reply, StreamReply):
            with pytest.raises(ResponseIntegrityError):
                _heartbeat_with(probe, world, reply)
            assert probe.to_json() == before_state
            return
        _heartbeat_with(probe, world, reply)
        assert probe.latest_header in (prev_header, genuine.header)
        if probe.latest_header == genuine.header:
            assert probe.latest_certificate == genuine.certificate
        for _height, root, _cert in probe.state.indexes.values():
            assert root in world["certified_roots"]
        assert probe.push_rejected == probe.integrity_failures <= 1
        if probe.push_rejected:
            assert probe.to_json() == before_state
            assert probe._sub_seq <= world["seq"] - 1
        if probe._sub_seq > world["seq"] - 1:
            assert probe.latest_header == genuine.header

    run_cases(prop)


def test_mutations_of_certified_material_are_rejected_and_counted(world):
    """The sharper half: when the flip *does* land in enclave-signed
    material (and still decodes, at the genuine seq), the client must
    reject it, count it, and withhold the ack."""
    genuine = world["announcement"]
    payload = world["payload"]

    def prop(rng):
        mutated = mutate_one_byte(payload, rng)
        try:
            candidate = wire.decode(mutated)
        except Exception:
            candidate = None
        interesting = (
            isinstance(candidate, TipAnnouncement)
            and candidate.seq == genuine.seq
            and _forges_certified_material(candidate.tip, genuine.tip)
        )
        probe = _make_probe(world, rng, "certprobe")
        # Drain leftovers from earlier cases so the ack count is ours.
        probe.rpc.bus.run_until_idle()
        hub_node = world["hub"].server.node
        acks_before = hub_node.delivered_count
        probe._on_push(PushEnvelope(payload=mutated))
        if not interesting:
            return
        assert probe.push_rejected == 1, "forged certified material accepted"
        assert probe.push_adopted == 0
        assert probe.latest_header.height == genuine.tip.header.height - 1
        # No ack went out: the hub will retransmit the genuine one.
        probe.rpc.bus.run_until_idle()
        assert hub_node.delivered_count == acks_before

    run_cases(prop)


def test_a_memo_holding_the_genuine_signatures_admits_no_mutation_of_them(world):
    """The client has already verified every certificate of the genuine
    announcement (a poll got there first), so each is one memo lookup
    away.  The memo key is every input of the signature check: a flip
    in ``pk_enc``, ``dig``, ``sig`` or the report misses it, is verified
    in full and rejected; the memo holds the same entries afterwards."""
    genuine = world["announcement"]
    payload = world["payload"]

    def prop(rng):
        mutated = mutate_one_byte(payload, rng)
        try:
            candidate = wire.decode(mutated)
        except Exception:
            candidate = None
        probe = _make_probe(world, rng, "memoprobe")
        memo = probe._verified_reports
        adopt_bundle(
            probe.expected_measurement, probe.ias_public_key,
            ClientState(), genuine.tip, memo,
        )
        reports, signatures = set(memo), set(memo.signatures)
        assert len(signatures) >= 1 + len(genuine.tip.index_certificates)
        probe._on_push(PushEnvelope(payload=mutated))
        assert set(memo) == reports and set(memo.signatures) == signatures
        if (
            isinstance(candidate, TipAnnouncement)
            and candidate.seq == genuine.seq
            and _forges_certified_material(candidate.tip, genuine.tip)
        ):
            assert probe.push_rejected == 1, "forged material rode the memo"
            assert probe.latest_header.height == genuine.tip.header.height - 1

    run_cases(prop)


def test_forged_bundles_are_rejected_atomically_on_polled_and_local_paths(world):
    """The same forged bundles, arriving by poll and handed in-process
    to ``adopt``: rejected as a whole, nothing half-adopted.  (Before
    adoption went through one verify-everything-then-adopt core, these
    two paths moved the tip and only then checked index certificates.)
    """
    genuine = world["announcement"].tip
    payload = world["payload"]
    prev = world["issuer"].certified[-2].tip

    def forged_tip(rng):
        # Most single-byte flips no longer decode; draw until one does
        # *and* tampers with enclave-signed material.
        for _ in range(256):
            try:
                candidate = wire.decode(mutate_one_byte(payload, rng))
                if isinstance(
                    candidate, TipAnnouncement
                ) and _forges_certified_material(candidate.tip, genuine):
                    return candidate.tip
            except Exception:
                continue  # undecodable, or decoded into unusable fields
        raise AssertionError("no decodable forgery in 256 draws")

    def prop(rng):
        forged = forged_tip(rng)

        # Polled: a lying issuer, the only one, serves the forged tip.
        poller = _make_probe(world, rng, "pollprobe", issuers=("liar",))
        world["liar_tip"].append(forged)
        before = poller.to_json()
        with pytest.raises(ServiceUnavailableError):
            poller.sync()
        world["liar_tip"].clear()
        assert poller.to_json() == before, (
            "a rejected polled tip left client state behind"
        )
        assert poller.integrity_failures == 1

        # Local: an in-process client handed the bundle directly (what an
        # issuer's on_certified hook does with client.adopt(certified.tip)).
        local = connect(ClientConfig(
            measurement=world["issuer"].measurement,
            ias_public_key=world["setup"]["ias"].public_key,
        ))
        local.adopt(prev)
        before = local.to_json()
        with pytest.raises(CertificateError):
            local.adopt(forged)
        assert local.to_json() == before, (
            "a rejected local bundle left client state behind"
        )
        assert local.latest_header == prev.header

    run_cases(prop)


def test_a_pk_enc_without_a_verified_report_is_never_pinned(world):
    """A forger who signs with a key of their own can present it under
    the genuine report (binding fails) or under a report of their own
    making (IAS check fails); neither earns a table, and tables never
    reach the wallet encoding or the storage count."""
    setup = world["setup"]
    issuer = world["issuer"]
    tip = issuer.certified[-1]
    genuine = tip.certificate
    forger = generate_keypair(b"forger")
    fake_ias = generate_keypair(b"forger-ias")
    unsigned = replace(
        genuine.report,
        report_data=forger.public.to_bytes(),
        ias_key=fake_ias.public,
    )
    own_report = replace(
        unsigned,
        signature=sign(fake_ias.private, unsigned.signed_payload(), "ias-report"),
    )
    client = connect(ClientConfig(
        measurement=issuer.measurement, ias_public_key=setup["ias"].public_key,
    ))
    client.adopt(issuer.certified[-2].tip)
    assert genuine.pk_enc.point in ecdsa._pinned
    pinned_before = list(ecdsa._pinned)
    state_before, bytes_before = client.to_json(), client.storage_bytes()
    for report in (genuine.report, own_report):
        forged = Certificate(
            pk_enc=forger.public,
            report=report,
            dig=genuine.dig,
            sig=sign(forger.private, genuine.dig, CERT_SIG_DOMAIN),
        )
        with pytest.raises(CertificateError):
            client.adopt(CertifiedTip(
                header=tip.block.header, certificate=forged,
                index_certificates={}, index_roots={},
            ))
        assert list(ecdsa._pinned) == pinned_before
        assert forger.public.point not in ecdsa._pinned
    assert client.to_json() == state_before
    assert client.storage_bytes() == bytes_before


# -- fields of the wrong type ---------------------------------------------------

#: One value per JSON shape the codec produces for a leaf.
_WRONG_TYPES = (7, "x", None, {"!l": [1]}, {"!b": "00"}, 1.5)
#: Stream bookkeeping the enclave never signed: a mutant there is still
#: the genuine certified tip, or no announcement at all.
_UNSIGNED_FIELDS = ("seq", "published_at_ms")


def _same_wire_type(a, b):
    """Whether two JSON leaves decode to values of one Python type."""
    if isinstance(a, dict) or isinstance(b, dict):
        return isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()
    return type(a) is type(b)


def _wrong_types(path, node):
    """The palette edits of a ``bytes`` or number leaf of a wire JSON tree."""
    if type(node) in (int, float) or type(node) is dict and "!b" in node:
        yield "palette", {"values": [w for w in _WRONG_TYPES if not _same_wire_type(node, w)]}


def _wrong_type_mutants(payload):
    """``(field, payload)`` for every one-leaf edit of ``payload`` that
    puts a value of another type where ``bytes`` or a number was."""
    for path, _label, tree in mutate.mutants(json.loads(payload), _wrong_types):
        steps = [step for step in path if step not in ("!f", "!d", "!t")]
        # The outermost field that is not a "tip": in a TipAnnouncement,
        # the field of its CertifiedTip; in a StreamReply, of the
        # announcement it carries (and of that announcement's tip).
        field = next(step for step in steps if step != "tip")
        yield field, json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()


def _genuine_signatures(world):
    return {
        (cert.pk_enc.to_bytes(), cert.dig, cert.sig.to_bytes())
        for certified in world["issuer"].certified
        for cert in (certified.certificate, *certified.index_certificates.values())
    }


def test_a_pushed_field_of_the_wrong_type_is_a_rejected_forgery(world):
    """A header, report, digest or index-root field that decodes into an
    ``int`` / ``str`` / ``None`` / ``list`` / short ``bytes`` / ``float``
    where the certificate check hashes bytes or compares numbers: the
    codec cannot know the field types, so the push handler has to answer
    exactly as for a forged value of the right type — counted, not
    acked, nothing moved — instead of raising ``TypeError`` into the bus
    loop every node on that bus shares."""
    genuine = world["announcement"].tip
    rng = random.Random(18)
    hub_node = world["hub"].server.node
    reached_the_check = 0
    for field, payload in _wrong_type_mutants(world["payload"]):
        try:
            wire.decode(payload)
            decodes = True
        except WireError:
            decodes = False
        probe = _make_probe(world, rng, "typeprobe")
        probe.rpc.bus.run_until_idle()
        memo = probe._verified_reports
        before, reports, acks = probe.to_json(), set(memo), hub_node.delivered_count
        probe._on_push(PushEnvelope(payload=payload))  # never raises
        probe.rpc.bus.run_until_idle()
        assert set(memo) == reports
        assert set(memo.signatures) <= _genuine_signatures(world)
        if decodes and field in _UNSIGNED_FIELDS:
            # e.g. an integer timestamp: the certified tip is intact.
            assert probe.push_rejected + probe.push_adopted == 1
        else:
            reached_the_check += decodes
            assert probe.push_rejected == probe.integrity_failures == 1, field
            assert probe.to_json() == before, field
            assert probe._sub_seq == world["seq"] - 1
            assert hub_node.delivered_count == acks, "a malformed push was acked"
        # The genuine announcement, retransmitted, is still adopted.
        probe._on_push(PushEnvelope(payload=world["payload"]))
        assert probe.latest_header == genuine.header, field
        assert probe._sub_seq == world["seq"]
    # The codec does not do this test's work, and does its own: a
    # mistyped signature scalar is a WireError (Signature.__post_init__;
    # 150 would reach the check without it).
    assert reached_the_check == 90


def test_a_replied_field_of_the_wrong_type_is_a_rejected_forgery(world):
    """The same palette on a heartbeat reply: a mistyped ``latest_seq``
    (or announcement ``seq``) does not decode, and any other field of
    the announcement it carries is answered exactly as when pushed —
    counted, nothing moved — and the genuine reply is adopted after."""
    genuine = world["announcement"].tip
    genuine_reply = wire.decode(world["reply_payload"])
    rng = random.Random(18)
    reached_the_check = 0
    for field, payload in _wrong_type_mutants(world["reply_payload"]):
        try:
            reply = wire.decode(payload)
        except WireError:
            continue  # RpcClient.resolve: a ResponseIntegrityError
        assert field not in ("latest_seq", "seq"), field
        probe = _make_probe(world, rng, "typereply")
        memo = probe._verified_reports
        before, reports = probe.to_json(), set(memo)
        _heartbeat_with(probe, world, reply)  # never raises
        assert set(memo) == reports
        assert set(memo.signatures) <= _genuine_signatures(world)
        if field in _UNSIGNED_FIELDS:
            assert probe.push_rejected + probe.push_adopted == 1
        else:
            reached_the_check += 1
            assert probe.push_rejected == probe.integrity_failures == 1, field
            assert probe.to_json() == before, field
            assert probe._sub_seq == world["seq"] - 1
        _heartbeat_with(probe, world, genuine_reply)
        assert probe.latest_header == genuine.header, field
        assert probe._sub_seq == world["seq"]
    assert reached_the_check == 90


def test_a_polled_field_of_the_wrong_type_fails_over_like_a_forgery(world):
    """The same malformed bundles as a lying issuer's ``latest_tip``:
    ``sync`` fails over to the honest issuer, a ``bootstrap`` with
    nowhere else to go ends in the taxonomy, nothing is half-adopted."""
    genuine = world["announcement"].tip
    rng = random.Random(18)
    anchors = {
        "measurement": world["issuer"].measurement,
        "ias_public_key": world["setup"]["ias"].public_key,
    }
    empty_wallet = connect(ClientConfig(**anchors)).to_json()
    served = 0
    for field, payload in _wrong_type_mutants(world["payload"]):
        if field in _UNSIGNED_FIELDS:
            continue  # a polled tip has neither
        try:
            candidate = wire.decode(payload)
        except WireError:
            continue
        served += 1
        world["liar_tip"].append(candidate.tip)
        poller = _make_probe(world, rng, "typepoll", issuers=("liar", "ci"))
        tip = poller.sync()
        assert tip.header == poller.latest_header == genuine.header, field
        # The liar cost one integrity failure; the honest issuer served.
        assert poller.integrity_failures == 1
        fresh = connect(ClientConfig(
            **anchors, bus=world["bus"], name=f"typeboot-{served}", issuers=("liar",),
            gateway=_gateway(world, f"typeboot-{served}"),
        ))
        with pytest.raises(ServiceUnavailableError):
            fresh.sync()
        assert fresh.latest_header is None
        assert fresh.to_json() == empty_wallet
        world["liar_tip"].clear()
    assert served >= 90


def test_adopt_bundle_reports_a_malformed_bundle_as_a_certificate_error(world):
    """The boundary itself, on decoded objects: the error is the typed
    one with the fixed message, and the caller's state object and memo
    are what a forged digest leaves behind."""
    genuine = world["announcement"].tip
    issuer = world["issuer"]
    anchors = (issuer.measurement, world["setup"]["ias"].public_key)
    held = adopt_bundle(
        *anchors, ClientState(), issuer.certified[-2].tip, VerifiedMemo(4)
    )
    after_forgery = VerifiedMemo(4)
    with pytest.raises(CertificateError, match="does not match"):
        wrong_roots = {name: bytes(32) for name in genuine.index_roots}
        adopt_bundle(
            *anchors, held, replace(genuine, index_roots=wrong_roots), after_forgery
        )
    for bundle in (
        replace(genuine, header=replace(genuine.header, height="7")),
        replace(genuine, header=replace(genuine.header, prev_hash=7)),
        replace(genuine, certificate=replace(genuine.certificate, dig=None)),
        replace(genuine, certificate=replace(
            genuine.certificate,
            report=replace(genuine.certificate.report, measurement=[1]),
        )),
        replace(genuine, index_roots={"history": 1.5, "keyword": b"\0"}),
        replace(genuine, index_certificates={"history": 7}),
        replace(genuine, index_roots=None),
    ):
        memo = VerifiedMemo(4)
        with pytest.raises(CertificateError, match="^malformed tip bundle$"):
            adopt_bundle(*anchors, held, bundle, memo)
        assert set(memo) <= set(after_forgery)
        assert set(memo.signatures) <= set(after_forgery.signatures)


# -- a tip-only client ----------------------------------------------------------


def _deliver(world, probe, path, tip):
    """Hand ``tip`` to ``probe`` as ``path`` does: pushed by the hub,
    carried in a hub's heartbeat reply, or served by a lying issuer's
    ``latest_tip`` (the probe's only issuer; returns what ``sync`` did)."""
    announcement = TipAnnouncement(seq=world["seq"], published_at_ms=0.0, tip=tip)
    if path == "push":
        probe._on_push(PushEnvelope(payload=wire.encode(announcement)))
    elif path == "reply":
        _heartbeat_with(probe, world, StreamReply(
            latest_seq=world["seq"], subscribed=True, tip=announcement,
        ))
    else:
        world["liar_tip"].append(tip)
        try:
            return probe.sync()
        except ServiceUnavailableError:
            pass
        finally:
            world["liar_tip"].clear()


@pytest.mark.parametrize("path", ["push", "reply", "poll"])
def test_a_tip_only_client_reads_only_the_block_certificate(world, path):
    """A client without a gateway keeps the header and block certificate
    of a tip, nothing else.  A forged index part never reaches its state
    (its index map stays empty) and the tip moves on the genuine block
    certificate; the same bundle is rejected whole, and counted, by a
    client that keeps index roots.  A forged block certificate is
    rejected and counted by both, with their state byte-identical."""
    genuine = world["announcement"].tip
    older = world["issuer"].certified[-2].tip
    forged_parts = {
        "index roots": replace(
            genuine, index_roots={name: bytes(32) for name in genuine.index_roots}
        ),
        "index certificates": replace(
            genuine, index_certificates=older.index_certificates
        ),
        "block certificate": replace(genuine, certificate=older.certificate),
    }
    rng = random.Random(43)
    for part, bundle in forged_parts.items():
        tip_only = _make_probe(world, rng, f"tiponly-{path}", ("liar",), tip_only=True)
        keeper = _make_probe(world, rng, f"keeper-{path}", ("liar",))
        assert tip_only.tip_only and not keeper.tip_only
        rejected_by = [keeper] if part.startswith("index") else [keeper, tip_only]
        for probe in (tip_only, keeper):
            before = probe.to_json()
            synced = _deliver(world, probe, path, bundle)
            if probe in rejected_by:
                assert probe.integrity_failures == 1, (part, path)
                assert probe.push_rejected == (path != "poll"), (part, path)
                assert probe.to_json() == before, (part, path)
            else:
                assert probe.integrity_failures == probe.push_rejected == 0
                assert probe.latest_header == genuine.header, (part, path)
                assert probe.latest_certificate == genuine.certificate
                # What sync returns is what it verified: no index part.
                if path == "poll":
                    assert synced == CertifiedTip(
                        genuine.header, genuine.certificate, {}, {}
                    ), part
        assert not tip_only.state.indexes, (part, path)


def test_a_mutated_tip_moves_a_tip_only_client_only_on_its_block_certificate(world):
    """Mutants of a genuine announcement that still decode — one-byte
    flips drawn until one does, and every one-leaf edit to a value of
    another type — pushed, replied and polled to tip-only clients: the
    index map stays empty, a mutant whose header and block certificate
    are the genuine ones is adopted (whatever its index parts say), and
    any other is rejected and counted with the state byte-identical."""
    genuine = world["announcement"].tip
    rng = random.Random(43)

    def deliver_everywhere(candidate):
        adopted = (
            candidate.tip.header == genuine.header
            and candidate.tip.certificate == genuine.certificate
        )
        for path in ("push", "reply", "poll"):
            probe = _make_probe(world, rng, "lean" + path, ("liar",), tip_only=True)
            before = probe.to_json()
            _deliver(world, probe, path, candidate.tip)
            assert not probe.state.indexes, path
            if adopted:
                assert probe.latest_header == genuine.header, path
                assert probe.integrity_failures == 0, path
            else:
                assert probe.integrity_failures == 1, path
                assert probe.to_json() == before, path
        return adopted

    def decodable_flip(flip_rng):
        for _ in range(256):
            try:
                candidate = wire.decode(mutate_one_byte(world["payload"], flip_rng))
            except WireError:
                continue
            if isinstance(candidate, TipAnnouncement):
                return candidate
        raise AssertionError("no decodable mutant in 256 draws")

    run_cases(lambda flip_rng: deliver_everywhere(decodable_flip(flip_rng)))
    tally = Counter()
    for field, payload in _wrong_type_mutants(world["payload"]):
        if field in _UNSIGNED_FIELDS:
            continue
        try:
            candidate = wire.decode(payload)
        except WireError:
            continue
        tally[field, deliver_everywhere(candidate)] += 1
    # The 90 mistyped leaves that reach an index-keeping client's check
    # (see the pushed case above): the 40 in index parts are adopted
    # around, the 50 in the header and block certificate rejected.
    assert tally == {
        ("index_certificates", True): 30, ("index_roots", True): 10,
        ("header", False): 35, ("certificate", False): 15,
    }


@pytest.mark.parametrize("path", ["push", "reply", "poll"])
def test_a_gateway_client_sent_the_tip_only_form_keeps_its_index_roots(world, path):
    """A lying hub (or issuer) sends a client with a gateway the tip-only
    form.  Its tip moves on the verified block certificate alone; its
    index roots stay exactly the ones it held, and its answer cache keeps
    nothing under a root it does not hold."""
    genuine = world["announcement"].tip
    older = world["issuer"].certified[-2].tip
    probe = _make_probe(world, random.Random(45), f"keeper-lean-{path}", ("liar",))
    held = dict(probe.state.indexes)
    assert {name: entry[1] for name, entry in held.items()} == older.index_roots
    for root in (*older.index_roots.values(), *genuine.index_roots.values()):
        probe.cache.put(b"request", root, "an answer verified at this root")
    _deliver(world, probe, path, genuine.without_indexes())
    assert probe.integrity_failures == probe.push_rejected == 0
    assert probe.latest_header == genuine.header
    assert probe.latest_certificate == genuine.certificate
    assert dict(probe.state.indexes) == held
    cached = {root for _request, root in probe.cache._entries}
    assert cached == set(older.index_roots.values())
    # A forged block certificate in the same form moves nothing.
    forged = replace(genuine.without_indexes(), certificate=older.certificate)
    rival = _make_probe(world, random.Random(46), f"keeper-forged-{path}", ("liar",))
    before = rival.to_json()
    _deliver(world, rival, path, forged)
    assert rival.integrity_failures == 1 and rival.to_json() == before
