"""The one light client's surface: the connect() factory, config
validation, answer verification, and the storage budget."""

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.client_api import ClientConfig, connect
from repro.core.superlight import (
    ClientState,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.errors import ConfigError, ReproError, ServiceUnavailableError
from repro.crypto import generate_keypair
from repro.net.bus import MessageBus
from repro.net.gateway import QueryGateway
from repro.query.api import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer
from tests.conftest import fresh_vm

#: The paper's constant client state: ~2.97 KB.
PAPER_STORAGE_BUDGET_BYTES = int(2.97 * 1024)


@pytest.fixture()
def local_client(certified_setup):
    setup = certified_setup
    measurement = compute_expected_measurement(
        setup["genesis"].header.header_hash(),
        setup["ias"].public_key,
        fresh_vm(),
        setup["chain"].pow.difficulty_bits,
        setup["specs"],
    )
    return SuperlightClient(measurement, setup["ias"].public_key)


@pytest.fixture(scope="module")
def four_family_world():
    """A provider over all four index families, plus a client that
    trusts its roots (injected directly: these tests exercise answer
    verification, not certificate adoption)."""
    user = generate_keypair(b"client-api-user")
    builder = ChainBuilder(difficulty_bits=4, network="client-api")
    nonce = [0]

    def tx(contract, method, *args):
        signed = sign_transaction(
            user.private, nonce[0], contract, method, tuple(args)
        )
        nonce[0] += 1
        return signed

    builder.add_block([tx("smallbank", "create", "a1", "900", "100")])
    for round_ in range(3):
        builder.add_block([
            tx("smallbank", "deposit_checking", "a1", "50"),
            tx("kvstore", "put", "k1", f"v{round_}"),
        ])
    specs = [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]
    genesis, state = make_genesis(network="client-api")
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, specs
    )
    for block in builder.blocks[1:]:
        provider.ingest_block(block)

    ias = AttestationService(seed=b"client-api-ias")
    client = SuperlightClient(b"\x11" * 32, ias.public_key)
    # Plant the provider's roots as certified (no issuer in this world;
    # these tests exercise answer verification, not adoption).
    client.state = ClientState(indexes={
        spec.name: (builder.height, provider.index_root(spec.name), None)
        for spec in specs
    })
    return provider, client, builder.height


# -- the connect() factory ---------------------------------------------------


def _anchors(certified_setup):
    return dict(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
    )


def test_connect_local_mode(certified_setup):
    client = connect(ClientConfig(**_anchors(certified_setup)))
    assert isinstance(client, SuperlightClient)
    # In-process: no transport is built, and the network half refuses
    # typed instead of reaching for it.
    assert not hasattr(client, "rpc") and not hasattr(client, "cache")
    request = HistoryQuery(index="history", account="a", t_from=1, t_to=1)
    with pytest.raises(ConfigError, match="without a gateway cannot query"):
        client.query(request)
    with pytest.raises(ServiceUnavailableError):
        client.sync()
    with pytest.raises(ServiceUnavailableError, match="no hub"):
        client.subscribe()


def test_connect_remote_providers(certified_setup):
    """One service provider is a fleet of one behind a gateway."""
    bus = MessageBus()
    client = connect(ClientConfig(
        **_anchors(certified_setup),
        bus=bus, issuers=("ci",), gateway=QueryGateway(bus, "gw", ["sp"]),
    ))
    assert isinstance(client, SuperlightClient)
    assert list(client.gateway.replicas) == ["sp"]


def test_connect_remote_gateway(certified_setup):
    bus = MessageBus()
    gateway = QueryGateway(bus, "gw", ["sp1", "sp2"])
    client = connect(ClientConfig(
        **_anchors(certified_setup), bus=bus, issuers=("ci",), gateway=gateway,
    ))
    assert isinstance(client, SuperlightClient)
    assert client.gateway is gateway


def test_connect_remote_tip_only(certified_setup):
    """No gateway: a certificate-sync-only client, whose queries are
    refused with one typed error before anything is sent."""
    client = connect(ClientConfig(
        **_anchors(certified_setup), bus=MessageBus(), issuers=("ci",),
    ))
    assert isinstance(client, SuperlightClient)
    assert client.gateway is None
    request = HistoryQuery(index="history", account="a", t_from=1, t_to=1)
    for ask in (lambda: client.query(request), lambda: client.query_many([request])):
        with pytest.raises(ConfigError, match="without a gateway cannot query"):
            ask()
    assert client.rpc.calls == 0


def test_connect_emits_no_deprecation_warning(certified_setup):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        connect(ClientConfig(
            **_anchors(certified_setup), bus=MessageBus(), issuers=("ci",),
        ))


@pytest.mark.parametrize("overrides", [
    # A remote client with no issuer endpoints cannot sync certificates.
    dict(bus=MessageBus()),
    # A client with no room for one verified answer cannot degrade.
    dict(bus=MessageBus(), issuers=("ci",), cache_capacity=0),
    # Remote-mode settings without a bus are a mis-wiring, not local mode.
    dict(gateway=object()),
    dict(hub="hub"),
    # subscribe=True needs a push source: a hub endpoint.
    dict(bus=MessageBus(), issuers=("ci",), subscribe=True),
    dict(subscribe=True),
])
def test_config_validate_rejects_miswirings(certified_setup, overrides):
    config = ClientConfig(**_anchors(certified_setup), **overrides)
    with pytest.raises(ReproError):
        config.validate()


@pytest.mark.parametrize("overrides,match", [
    # The answer cache always exists, so its capacity is at least one:
    # zero would silently disable stale degradation, and a negative
    # capacity is refused here, typed, not inside the cache.
    (dict(bus=MessageBus(), issuers=("ci",), degrade_to_stale=True,
          cache_capacity=0), "cache_capacity"),
    (dict(cache_capacity=-1), "cache_capacity"),
    # Subscribing remotely without a hub endpoint: the error names it.
    (dict(bus=MessageBus(), issuers=("ci",), subscribe=True), "hub"),
    # Remote-mode settings with no service transport (no bus) point at
    # the missing bus, not at local mode.
    (dict(gateway=object(), hub="hub"), "bus"),
    (dict(gateway=object()), "bus"),
    (dict(hub="hub"), "bus"),
])
def test_config_validate_names_the_miswiring(certified_setup, overrides,
                                             match):
    """Each rejection message names the conflicting/missing setting."""
    config = ClientConfig(**_anchors(certified_setup), **overrides)
    with pytest.raises(ReproError, match=match):
        config.validate()


# -- the unified verification surface ---------------------------------------


def test_verify_answer_covers_all_four_families(four_family_world):
    provider, client, height = four_family_world
    requests = (
        HistoryQuery(index="history", account="k1", t_from=1, t_to=height),
        KeywordQuery(index="keyword", keywords=("k1",)),
        AggregateQuery(index="aggregate", account="a1", t_from=1, t_to=height),
        ValueRangeQuery(index="range", lo=0, hi=10_000),
    )
    for request in requests:
        answer = provider.execute(request)
        assert client.verify_answer(request, answer)


def test_verify_answer_rejects_tampered_answers(four_family_world):
    provider, client, height = four_family_world
    request = HistoryQuery(index="history", account="k1", t_from=1, t_to=height)
    answer = provider.execute(request)
    tampered = forge_answer(answer.payload, "drop")
    assert tampered.versions == answer.payload.versions[1:]
    assert not client.verify_answer(
        request, QueryAnswer(request=request, payload=tampered)
    )


# -- the storage budget (Fig. 7a) -------------------------------------------


def test_storage_counts_index_certificates(local_client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    local_client.validate_chain(tip.block.header, tip.certificate)
    base = local_client.storage_bytes()
    assert base == (
        tip.block.header.size_bytes() + tip.certificate.size_bytes()
    )
    cert = tip.index_certificates["history"]
    local_client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"], cert
    )
    grown = local_client.storage_bytes()
    # One entry, ["history",<height>,"<root>","<sig>"]: the certificate's
    # enclave identity is the tip's, stored once, and its digest is
    # H(header || root); a 32-byte root and a 64-byte signature in hex.
    height = len(str(tip.block.header.height))
    assert grown == base + len('["history",,"",""]') + height + 64 + 128


def test_full_client_state_within_paper_budget(local_client, certified_setup):
    """Header + certificate + every index certificate: ~2.97 KB."""
    tip = certified_setup["issuer"].certified[-1]
    local_client.validate_chain(tip.block.header, tip.certificate)
    for name in ("history", "keyword"):
        local_client.validate_index_certificate(
            name, tip.block.header,
            tip.index_roots[name], tip.index_certificates[name],
        )
    total = local_client.storage_bytes()
    assert 0 < total <= PAPER_STORAGE_BUDGET_BYTES
    # The wallet file is the durable form of exactly this state.
    restored = SuperlightClient.from_json(local_client.to_json())
    assert restored.storage_bytes() == total
