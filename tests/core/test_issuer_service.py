"""``IssuerService``: the certified chain over RPC.

``certify_range`` is how a deployment certifies blocks (the sim's
``certify`` / ``crash`` events, the ``crash`` scenario row, the
supervisor): a loop of ``process_block`` with an idempotent contract, so
what the benchmark measures (``certify-stream``) is what the deployment
runs.
"""

from __future__ import annotations

import json

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import CertificateIssuer, CertifiedTip, IssuerService
from repro.core.recovery import DurableIssuer
from repro.crypto import generate_keypair
from repro.errors import CertificateError, ServiceUnavailableError
from repro.net import MessageBus, RpcClient, wire
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

_USER = generate_keypair(b"issuer-svc-user")
NETWORK = "issuer-svc"


def build_chain(blocks: int = 10) -> ChainBuilder:
    builder = ChainBuilder(difficulty_bits=4, network=NETWORK)
    nonce = 0
    for i in range(blocks):
        builder.add_block([sign_transaction(
            _USER.private, nonce, "kvstore", "put",
            (f"k{i % 3}", f"v{i}"),
        )])
        nonce += 1
    return builder


def identity() -> dict:
    return dict(
        index_specs=[AccountHistoryIndexSpec(name="history")],
        ias=AttestationService(seed=b"issuer-svc-ias"),
        platform=SGXPlatform(seed=b"issuer-svc-platform"),
        key_seed=b"issuer-svc-enclave",
    )


@pytest.fixture()
def world():
    builder = build_chain()
    genesis, state = make_genesis(network=NETWORK)
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow, **identity()
    )
    return builder, issuer


@pytest.fixture()
def rpc_world(world):
    builder, issuer = world
    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", issuer)
    client = RpcClient(bus, "relay")
    return builder, issuer, bus, client


# -- certify_range RPC -------------------------------------------------------


def test_certify_range_over_rpc(rpc_world):
    builder, issuer, bus, client = rpc_world
    tips = client.call("ci", "certify_range", list(builder.blocks[1:6]))
    assert len(tips) == 5
    assert [tip.header.height for tip in tips] == [1, 2, 3, 4, 5]
    assert tips[-1].certificate == issuer.latest_certificate
    assert "history" in tips[-1].index_certificates
    # The issuer committed the blocks; a follow-up latest_tip agrees.
    latest = client.call("ci", "latest_tip")
    assert latest.header == tips[-1].header


def test_certify_range_rejects_bad_arguments(rpc_world):
    _, _, _, client = rpc_world
    with pytest.raises(CertificateError):
        client.call("ci", "certify_range", [])
    with pytest.raises(CertificateError):
        client.call("ci", "certify_range", ["not-a-block"])


def test_certify_range_propagates_validation_errors(rpc_world):
    builder, issuer, _, client = rpc_world
    # Skipping a height breaks the chain linkage check.
    with pytest.raises(Exception) as excinfo:
        client.call("ci", "certify_range", [builder.blocks[2]])
    assert "height" in str(excinfo.value) or "prev" in str(excinfo.value).lower()
    # The issuer is unharmed and can still certify the proper range.
    tips = client.call("ci", "certify_range", list(builder.blocks[1:3]))
    assert len(tips) == 2


def test_certify_range_certifies_the_valid_prefix_before_failing(rpc_world):
    builder, issuer, _, client = rpc_world
    with pytest.raises(Exception):
        client.call(
            "ci", "certify_range",
            [builder.blocks[1], builder.blocks[2], builder.blocks[4]],
        )
    assert [c.block.header.height for c in issuer.certified] == [1, 2]
    # A retry that re-sends the certified prefix is answered from it.
    tips = client.call("ci", "certify_range", list(builder.blocks[1:5]))
    assert [tip.header.height for tip in tips] == [1, 2, 3, 4]
    assert tips[1].certificate == issuer.certified[1].certificate


def test_tip_at_refuses_heights_that_are_not_certified_integers(rpc_world):
    """``height`` comes off the wire: anything but an in-range ``int``
    (``True == 1`` and ``1.0 == 1`` included) is refused, typed."""
    builder, issuer, _, client = rpc_world
    client.call("ci", "certify_range", list(builder.blocks[1:4]))
    tip = len(issuer.certified)
    assert client.call("ci", "tip_at", tip).header == builder.blocks[tip].header
    assert client.call("ci", "tip_at", 1).header == builder.blocks[1].header
    for height in (True, 1.0, "3", 0, -1, tip + 1, None):
        with pytest.raises(ServiceUnavailableError):
            client.call("ci", "tip_at", height)


# -- latest_tip in two forms -------------------------------------------------


def test_latest_tip_serves_the_form_asked_for(rpc_world):
    """No argument, or ``False``: the whole tip, every index part of it.
    ``True``: the tip-only form, header and block certificate only."""
    builder, issuer, _, client = rpc_world
    client.call("ci", "certify_range", list(builder.blocks[1:4]))
    whole = issuer.certified[-1].tip
    assert set(whole.index_certificates) == set(whole.index_roots) == {"history"}
    assert wire.encode(client.call("ci", "latest_tip")) == wire.encode(whole)
    assert wire.encode(client.call("ci", "latest_tip", False)) == wire.encode(whole)
    lean = client.call("ci", "latest_tip", True)
    assert lean == CertifiedTip(whole.header, whole.certificate, {}, {})
    assert len(wire.encode(lean)) < len(wire.encode(whole))


def test_latest_tip_refuses_a_kind_that_is_not_none_or_a_bool(rpc_world):
    """``tip_only`` comes off the wire: ``1 == True`` and ``0 == False``
    are refused like any other value that is not ``None`` or a ``bool``,
    typed, before and after the first certified block."""
    builder, _, _, client = rpc_world
    arguments = (1, 0, 1.0, "x", "true", (True,), [False], {"tip_only": True})
    for certified in (False, True):
        if certified:
            client.call("ci", "certify_range", list(builder.blocks[1:3]))
        for argument in arguments:
            with pytest.raises(ServiceUnavailableError, match="tip_only"):
                client.call("ci", "latest_tip", argument)


# -- the deployed path writes what process_block writes ------------------------


def test_certify_range_writes_one_block_record_per_block(tmp_path):
    """After ``certify_range`` of N blocks over RPC the archive is one
    ``head`` + N ``block`` records -- byte for byte the WAL (and sealed
    checkpoint) that N ``process_block`` calls write, so its bytes per
    block are ``certify-stream``'s.  (Parent: 2N + 1 records, a
    ``staged`` one before every ``block``.)"""
    builder = build_chain()
    blocks = builder.blocks[1:]

    def durable(name: str) -> DurableIssuer:
        genesis, state = make_genesis(network=NETWORK)
        return DurableIssuer.create(
            ChainArchive(tmp_path / name), genesis, state, fresh_vm(), builder.pow,
            checkpoint_interval=4, **identity(),
        )

    served, direct = durable("rpc.wal"), durable("direct.wal")
    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", served)
    RpcClient(bus, "miner").call("ci", "certify_range", tuple(blocks))
    for block in blocks:
        direct.process_block(block)

    assert served.archive.load().torn_bytes_dropped == 0
    records = served.archive.wal.records(repair=False)
    kinds = [json.loads(payload)["kind"] for payload in records]
    assert kinds == ["head"] + ["block"] * len(blocks)
    assert served.archive.path.read_bytes() == direct.archive.path.read_bytes()
    assert (
        served.archive.checkpoint_path.read_bytes()
        == direct.archive.checkpoint_path.read_bytes()
    )
