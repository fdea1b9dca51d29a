"""The superlight client: Alg. 3, chain selection, constant costs."""

import json

import pytest

from repro import obs
from repro.core import CertifiedTip, ClientConfig, IssuerService, connect
from repro.core.superlight import SuperlightClient, compute_expected_measurement
from repro.crypto import ecdsa
from repro.errors import CertificateError, ConfigError, ServiceUnavailableError
from repro.net import MessageBus
from repro.net.gateway import QueryGateway
from repro.net.rpc import RpcServer
from tests.conftest import fresh_vm


@pytest.fixture()
def client(certified_setup):
    setup = certified_setup
    measurement = compute_expected_measurement(
        setup["genesis"].header.header_hash(),
        setup["ias"].public_key,
        fresh_vm(),
        setup["chain"].pow.difficulty_bits,
        setup["specs"],
    )
    assert measurement == setup["issuer"].measurement
    return SuperlightClient(measurement, setup["ias"].public_key)


def test_validate_latest_tip(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_chain(tip.block.header, tip.certificate)
    assert client.latest_header == tip.block.header


def test_chain_selection_prefers_height(client, certified_setup):
    certified = certified_setup["issuer"].certified
    assert client.validate_chain(certified[-1].block.header, certified[-1].certificate)
    # An older (but genuinely certified) block loses chain selection.
    assert not client.validate_chain(
        certified[0].block.header, certified[0].certificate
    )
    assert client.latest_header == certified[-1].block.header


def test_storage_is_constant(client, certified_setup):
    sizes = []
    for certified in certified_setup["issuer"].certified:
        client.validate_chain(certified.block.header, certified.certificate)
        sizes.append(client.storage_bytes())
    assert max(sizes) - min(sizes) <= 8  # only numeric field widths vary


def test_report_checked_once_per_enclave(client, certified_setup):
    certified = certified_setup["issuer"].certified
    client.validate_chain(certified[0].block.header, certified[0].certificate)
    assert len(client._verified_reports) == 1
    client.validate_chain(certified[1].block.header, certified[1].certificate)
    assert len(client._verified_reports) == 1


def test_report_cache_binds_full_report_content(client, certified_setup):
    """Regression (found by tests/proptest): the verified-report cache
    must key on every attested field, not the signature alone.  A
    certificate whose report replays a previously verified signature
    but carries a tampered measurement must not ride the cache past the
    measurement check."""
    from dataclasses import replace

    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_chain(tip.block.header, tip.certificate)

    index_cert = tip.index_certificates["history"]
    bad_measurement = bytes([index_cert.report.measurement[0] ^ 0x01]) + (
        index_cert.report.measurement[1:]
    )
    forged = replace(
        index_cert, report=replace(index_cert.report, measurement=bad_measurement)
    )
    with pytest.raises(CertificateError):
        client.validate_index_certificate(
            "history", tip.block.header, tip.index_roots["history"], forged
        )


def test_index_certificate_adoption(client, certified_setup):
    certified = certified_setup["issuer"].certified
    old, new = certified[-2], certified[-1]
    assert client.validate_index_certificate(
        "history", new.block.header, new.index_roots["history"],
        new.index_certificates["history"],
    )
    # An older index certificate does not displace a newer root.
    assert not client.validate_index_certificate(
        "history", old.block.header, old.index_roots["history"],
        old.index_certificates["history"],
    )
    assert client.certified_index_root("history") == new.index_roots["history"]


def test_augmented_certificate_also_validates(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_index_certificate(
        "keyword", tip.block.header, tip.index_roots["keyword"],
        tip.augmented_certificates["keyword"],
    )


def test_unknown_index_root_raises(client):
    with pytest.raises(CertificateError):
        client.certified_index_root("unheard-of")


def test_query_verification_through_client(client, certified_setup):
    issuer = certified_setup["issuer"]
    tip = issuer.certified[-1]
    client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"],
        tip.index_certificates["history"],
    )
    from repro.query.api import HistoryQuery, KeywordQuery, QueryAnswer

    request = HistoryQuery(index="history", account="k1", t_from=1, t_to=10)
    answer = issuer.indexes["history"].query_history("k1", 1, 10)
    assert client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )

    client.validate_index_certificate(
        "keyword", tip.block.header, tip.index_roots["keyword"],
        tip.index_certificates["keyword"],
    )
    keyword_request = KeywordQuery(index="keyword", keywords=("v1",))
    keyword_answer = issuer.indexes["keyword"].query_conjunctive(["v1"])
    assert client.verify_answer(
        keyword_request,
        QueryAnswer(request=keyword_request, payload=keyword_answer),
    )


def test_wrong_measurement_rejected(certified_setup):
    setup = certified_setup
    client = SuperlightClient(b"\x00" * 32, setup["ias"].public_key)
    tip = setup["issuer"].certified[-1]
    with pytest.raises(CertificateError):
        client.validate_chain(tip.block.header, tip.certificate)


def test_wrong_ias_key_rejected(certified_setup):
    from repro.sgx.attestation import AttestationService

    setup = certified_setup
    rogue_ias = AttestationService(seed=b"rogue")
    client = SuperlightClient(setup["issuer"].measurement, rogue_ias.public_key)
    tip = setup["issuer"].certified[-1]
    with pytest.raises(CertificateError):
        client.validate_chain(tip.block.header, tip.certificate)


def test_wallet_roundtrip(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"],
        tip.index_certificates["history"],
    )
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.latest_header == client.latest_header
    assert restored.certified_index_root("history") == client.certified_index_root(
        "history"
    )
    assert restored.storage_bytes() == client.storage_bytes()


def test_wallet_tamper_rejected(client, certified_setup):
    import json

    client.adopt(certified_setup["issuer"].certified[-1].tip)
    height = client.latest_header.height

    def bump_header(wallet):
        header = json.loads(wallet["header"])
        header["height"] += 100
        wallet["header"] = json.dumps(header, sort_keys=True)

    def forge_root_at_tip(wallet):
        wallet["index_roots"]["history"] = [height, "ee" * 32]

    def forge_root_below_tip(wallet):
        # No stored header to bind it to: must not ride in on the
        # certificate's own digest.
        wallet["index_roots"]["history"] = [height - 1, "ee" * 32]

    def forge_root_and_drop_its_certificate(wallet):
        wallet["index_roots"]["history"] = [height, "ee" * 32]
        del wallet["index_certificates"]["history"]

    def restore(tamper):
        wallet = json.loads(client.to_json())
        tamper(wallet)
        return SuperlightClient.from_json(json.dumps(wallet))

    # A forged tip header, or a forged root bound to the stored tip:
    # the restore itself is refused.
    for tamper in (bump_header, forge_root_at_tip):
        with pytest.raises(CertificateError):
            restore(tamper)
    # An entry the wallet holds nothing to re-check against: the restore
    # keeps the genuine tip and drops the entry (re-fetched on the next
    # sync) — never served.
    for tamper in (forge_root_below_tip, forge_root_and_drop_its_certificate):
        restored = restore(tamper)
        assert restored.latest_header == client.latest_header
        with pytest.raises(CertificateError):
            restored.certified_index_root("history")


def test_empty_wallet_roundtrip(certified_setup):
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.latest_header is None
    assert restored.storage_bytes() == 0


def test_verified_report_cache_is_bounded(client, certified_setup):
    # Pretend earlier sessions verified other enclaves, and shrink the
    # cap so the next genuine verification must evict the oldest.
    client._verified_reports.reports_limit = 2
    client._verified_reports[(b"old-a", b"r", b"k", b"s")] = None
    client._verified_reports[(b"old-b", b"r", b"k", b"s")] = None
    certified = certified_setup["issuer"].certified[0]
    assert client.validate_chain(
        certified.block.header, certified.certificate
    )
    assert len(client._verified_reports) == 2
    assert (b"old-a", b"r", b"k", b"s") not in client._verified_reports
    # The freshly verified identity survived; revalidation stays cached.
    client.validate_chain(certified.block.header, certified.certificate)
    assert len(client._verified_reports) == 2


# -- the verified-signature memo is derived state -------------------------------


def test_wallet_and_storage_do_not_depend_on_the_memo(client, certified_setup):
    client.adopt(certified_setup["issuer"].certified[-1].tip)
    memo = client._verified_reports
    assert len(memo) == 1 and len(memo.signatures) == 3  # tip + two indexes
    wallet, stored = client.to_json(), client.storage_bytes()
    memo.clear()
    memo.signatures.clear()
    assert client.to_json() == wallet
    assert client.storage_bytes() == stored
    restored = SuperlightClient.from_json(wallet)
    assert restored.to_json() == wallet and restored.storage_bytes() == stored


def _poller(certified_setup, bus, *, gateway: bool, name="poller"):
    """A connected poller of the ``ci`` issuer; with a gateway (to a
    replica no test calls) it keeps index roots, without one it is
    tip-only."""
    return connect(ClientConfig(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, name=name, issuers=("ci",),
        gateway=QueryGateway(bus, f"{name}-gw", ["sp"]) if gateway else None,
    ))


def _count_verifies(monkeypatch):
    verified = []
    verify_digest = ecdsa.verify_digest
    monkeypatch.setattr(
        ecdsa, "verify_digest",
        lambda *args: verified.append(args) or verify_digest(*args),
    )
    return verified


def test_polling_an_unchanged_tip_verifies_nothing(certified_setup, monkeypatch):
    """A light client polls more often than blocks arrive: the tip it
    already holds costs three lookups, and nothing moves."""
    bus = MessageBus()
    IssuerService(bus, "ci", certified_setup["issuer"])
    remote = _poller(certified_setup, bus, gateway=True)
    verified = _count_verifies(monkeypatch)
    first = remote.sync()
    assert len(verified) == 1 + 3  # the report, then tip + two index certificates
    state, wallet = remote.state, remote.to_json()
    del verified[:]
    assert remote.sync() == first
    assert verified == []
    assert remote.state is state and remote.to_json() == wallet


def test_a_tip_only_poller_verifies_and_keeps_the_tip_only(certified_setup, monkeypatch):
    """Without a gateway a client can run no query, so the index parts
    of a tip are neither verified nor stored: one signature check per
    new tip (after the report), and a wallet of one header and one
    certificate that round-trips with no index entries."""
    bus = MessageBus()
    IssuerService(bus, "ci", certified_setup["issuer"])
    remote = _poller(certified_setup, bus, gateway=False)
    assert remote.tip_only
    verified = _count_verifies(monkeypatch)
    first = remote.sync()
    assert len(verified) == 1 + 1  # the report, then the tip's certificate
    assert dict(remote.state.indexes) == {}
    with pytest.raises(CertificateError, match="no certified root"):
        remote.certified_index_root("history")
    header, certificate = remote.latest_header, remote.latest_certificate
    assert header == first.header and certificate == first.certificate
    assert remote.storage_bytes() == header.size_bytes() + certificate.size_bytes()
    del verified[:]
    assert remote.sync() == first
    assert verified == []
    wallet = remote.to_json()
    stored = json.loads(wallet)
    assert stored["index_roots"] == {} and stored["index_certificates"] == {}
    restored = SuperlightClient.from_json(wallet)
    assert restored.to_json() == wallet
    assert restored.storage_bytes() == remote.storage_bytes()


def test_a_tip_only_client_refuses_index_certificates(certified_setup):
    """``validate_index_certificate`` on a tip-only client is the same
    typed refusal as ``query``; nothing is verified or moved."""
    bus = MessageBus()
    IssuerService(bus, "ci", certified_setup["issuer"])
    remote = _poller(certified_setup, bus, gateway=False)
    remote.sync()
    state = remote.state
    tip = certified_setup["issuer"].certified[-1]
    with pytest.raises(ConfigError, match="keeps no index roots"):
        remote.validate_index_certificate(
            "history", tip.block.header,
            tip.index_roots["history"], tip.index_certificates["history"],
        )
    assert remote.state is state


def test_only_a_forged_tip_counts_as_a_rejected_validation(certified_setup):
    """``client.chain_validations_rejected`` counts certificates that
    failed verification, not polls of a tip the client already holds."""
    bus = MessageBus()
    IssuerService(bus, "ci", certified_setup["issuer"])
    certified = certified_setup["issuer"].certified
    RpcServer(bus, "liar").register(
        "latest_tip",
        lambda _arg: CertifiedTip(
            certified[-1].block.header, certified[-2].certificate, {}, {}
        ),
    )
    for gateway in (True, False):
        remote = _poller(certified_setup, bus, gateway=gateway, name=f"poller-{gateway}")
        with obs.observability() as registry:
            registry.reset()
            remote.sync()
            remote.sync()
            remote.sync()
            assert registry.counters.get("client.chain_validations_rejected", 0) == 0
            remote.issuers = ["liar"]
            with pytest.raises(ServiceUnavailableError):
                remote.sync()
            assert registry.counters["client.chain_validations_rejected"] == 1
        assert remote.integrity_failures == 1
