"""The wallet's one encoding: each enclave identity is stored once.

A client persists :meth:`ClientState.encode` — the tip's header and
certificate, then per index an entry whose certificate, when it shares
the tip's enclave identity, is its signature alone — and
``storage_bytes()`` is that encoding's exact length.
"""

import json

import pytest

from repro.chain.genesis import make_genesis
from repro.core import ClientConfig, IssuerService, connect
from repro.core.certificate import Certificate
from repro.core.issuer import CertificateIssuer
from repro.core.superlight import SuperlightClient
from repro.errors import CertificateError
from repro.net import MessageBus
from repro.net.gateway import QueryGateway
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import cost_model_disabled
from tests.conftest import fresh_vm

FOUR = ("aggregate", "history", "keyword", "range")


def _issuer(kv_chain, ias, specs, key_seed, blocks=3):
    with cost_model_disabled():
        genesis, state = make_genesis()
        issuer = CertificateIssuer(
            genesis, state, fresh_vm(), kv_chain.pow,
            index_specs=specs, ias=ias, key_seed=key_seed,
        )
        for block in kv_chain.blocks[1:blocks]:
            issuer.process_block(block)
    return issuer


@pytest.fixture(scope="module")
def four_indexes(kv_chain):
    """A CI certifying all four index families."""
    ias = AttestationService(seed=b"wallet-ias")
    specs = [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]
    return _issuer(kv_chain, ias, specs, b"wallet-enclave"), ias


def _client(issuer, ias, **connected):
    return (
        connect(ClientConfig(
            measurement=issuer.measurement, ias_public_key=ias.public_key,
            **connected,
        ))
        if connected
        else SuperlightClient(issuer.measurement, ias.public_key)
    )


def _stored(client) -> bytes:
    return json.loads(client.to_json())["state"].encode()


def _holding(four_indexes, count):
    issuer, ias = four_indexes
    tip = issuer.certified[-1].tip
    client = _client(issuer, ias)
    client.validate_chain(tip.header, tip.certificate)
    for name in FOUR[:count]:
        client.validate_index_certificate(
            name, tip.header, tip.index_roots[name], tip.index_certificates[name]
        )
    return client, tip


@pytest.mark.parametrize("count", [0, 1, 2, 4])
def test_storage_is_the_length_of_the_stored_state(four_indexes, count):
    client, tip = _holding(four_indexes, count)
    stored = _stored(client)
    assert client.storage_bytes() == len(stored) == len(client.state.encode())
    assert stored.startswith(tip.header.encode() + tip.certificate.encode())
    # The enclave identity is written once, whatever the index count.
    report_signature = tip.certificate.report.signature.to_bytes().hex().encode()
    assert stored.count(report_signature) == 1
    if count == 0:
        assert client.storage_bytes() == (
            tip.header.size_bytes() + tip.certificate.size_bytes()
        )


@pytest.mark.parametrize("gateway", [False, True], ids=["tip-only", "gateway"])
def test_a_connected_client_stores_the_length_it_reports(four_indexes, gateway):
    issuer, ias = four_indexes
    bus = MessageBus()
    IssuerService(bus, "ci", issuer)
    client = _client(
        issuer, ias, bus=bus, name="reader", issuers=("ci",),
        gateway=QueryGateway(bus, "gw", ["sp"]) if gateway else None,
    )
    tip = client.sync()
    assert len(client.state.indexes) == (4 if gateway else 0)
    assert client.storage_bytes() == len(_stored(client))
    if not gateway:
        assert client.storage_bytes() == (
            tip.header.size_bytes() + tip.certificate.size_bytes()
        )


def test_a_wallet_round_trip_restores_tip_roots_and_size(four_indexes):
    client, _tip = _holding(four_indexes, 4)
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.latest_header == client.latest_header
    assert restored.latest_certificate == client.latest_certificate
    for name in FOUR:
        assert restored.certified_index_root(name) == client.certified_index_root(name)
        assert restored.state.indexes[name][2] == client.state.indexes[name][2]
    assert restored.storage_bytes() == client.storage_bytes()
    assert restored.to_json() == client.to_json()


def test_an_index_certificate_from_a_second_identity_is_stored_whole(
    certified_setup, kv_chain
):
    """A second enclave running the same program (same measurement,
    another ``pk_enc``) certifies one index: that certificate is stored
    with its own identity and comes back from the wallet."""
    first = certified_setup["issuer"]
    second = _issuer(
        kv_chain, certified_setup["ias"], list(certified_setup["specs"].values()),
        b"second-enclave",
    )
    assert second.measurement == first.measurement and second.pk_enc != first.pk_enc
    ours, theirs = first.certified[1].tip, second.certified[1].tip
    assert theirs.header == ours.header
    client = _client(first, certified_setup["ias"])
    client.validate_chain(ours.header, ours.certificate)
    client.validate_index_certificate(
        "history", ours.header, theirs.index_roots["history"],
        theirs.index_certificates["history"],
    )
    client.validate_index_certificate(
        "keyword", ours.header, ours.index_roots["keyword"],
        ours.index_certificates["keyword"],
    )
    stored = _stored(client)
    assert stored.count(second.pk_enc.to_bytes().hex().encode()) == 2  # pk_enc, report
    assert client.storage_bytes() == len(stored)
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.state.indexes["history"][2] == theirs.index_certificates["history"]
    assert restored.state.indexes["keyword"][2] == ours.index_certificates["keyword"]
    assert restored.to_json() == client.to_json()


def _flip(hex_text: str) -> str:
    raw = bytearray(bytes.fromhex(hex_text))
    raw[len(raw) // 2] ^= 0x01
    return raw.hex()


@pytest.mark.parametrize("field", ["measurement", "report signature", "pk_enc"])
def test_a_tampered_shared_identity_restores_nothing(four_indexes, field):
    """One byte of the identity the tip and every index certificate
    share: the restore is refused, as for a tampered certificate."""
    client, _tip = _holding(four_indexes, 4)
    wallet = json.loads(client.to_json())
    header_end = json.JSONDecoder().raw_decode(wallet["state"])[1]
    certificate, certificate_end = json.JSONDecoder().raw_decode(
        wallet["state"], header_end
    )
    if field == "pk_enc":
        certificate["pk_enc"] = _flip(certificate["pk_enc"])
    else:
        key = "measurement" if field == "measurement" else "sig"
        certificate["rep"][key] = _flip(certificate["rep"][key])
    wallet["state"] = (
        wallet["state"][:header_end]
        + json.dumps(certificate, sort_keys=True)
        + wallet["state"][certificate_end:]
    )
    with pytest.raises(CertificateError):
        SuperlightClient.from_json(json.dumps(wallet))


def test_storage_bytes_encodes_once_per_state(four_indexes, monkeypatch):
    """Sizing a state encodes it once — the tip's certificate, never an
    index certificate sharing its identity — and every later call reads
    the kept length: the simulation asks on every event."""
    client, _tip = _holding(four_indexes, 4)
    calls = {"json.dumps": 0, "Certificate.encode": 0}
    dumps, encode = json.dumps, Certificate.encode

    def counting_dumps(*args, **kwargs):
        calls["json.dumps"] += 1
        return dumps(*args, **kwargs)

    def counting_encode(self):
        calls["Certificate.encode"] += 1
        return encode(self)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(Certificate, "encode", counting_encode)
    first = client.storage_bytes()
    assert calls["Certificate.encode"] == 1
    calls.update({"json.dumps": 0, "Certificate.encode": 0})
    assert [client.storage_bytes() for _ in range(100)] == [first] * 100
    assert calls == {"json.dumps": 0, "Certificate.encode": 0}
