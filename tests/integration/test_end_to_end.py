"""End-to-end integration: miner -> CI -> SP -> superlight client."""

import pytest

from repro.chain.genesis import make_genesis
from repro.core.superlight import SuperlightClient, compute_expected_measurement
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.query.provider import QueryServiceProvider
from tests.conftest import fresh_vm


@pytest.fixture(scope="module")
def world(certified_setup):
    """The full topology: the CI from the session fixture plus an
    independent SP and a superlight client."""
    setup = certified_setup
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis,
        state,
        fresh_vm(),
        setup["chain"].pow,
        [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")],
    )
    for block in setup["chain"].blocks[1:]:
        provider.ingest_block(block)
    measurement = compute_expected_measurement(
        setup["genesis"].header.header_hash(),
        setup["ias"].public_key,
        fresh_vm(),
        setup["chain"].pow.difficulty_bits,
        setup["specs"],
    )
    client = SuperlightClient(measurement, setup["ias"].public_key)
    return {**setup, "provider": provider, "client": client}


def test_client_follows_broadcast_certificates(world):
    client = world["client"]
    for certified in world["issuer"].certified:
        client.validate_chain(certified.block.header, certified.certificate)
        for name, cert in certified.index_certificates.items():
            client.validate_index_certificate(
                name, certified.block.header, certified.index_roots[name], cert
            )
    assert client.latest_header.height == world["chain"].height


def test_independent_sp_serves_verifiable_queries(world):
    client = world["client"]
    tip = world["issuer"].certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    for name, cert in tip.index_certificates.items():
        client.validate_index_certificate(
            name, tip.block.header, tip.index_roots[name], cert
        )
    from repro.query.api import HistoryQuery, KeywordQuery

    history_request = HistoryQuery(
        index="history", account="k0", t_from=1, t_to=10
    )
    history = world["provider"].execute(history_request)
    assert len(history.payload.versions) >= 2
    assert client.verify_answer(history_request, history)
    keyword_request = KeywordQuery(index="keyword", keywords=("k0",))
    keywords = world["provider"].execute(keyword_request)
    assert client.verify_answer(keyword_request, keywords)


def test_sp_and_ci_agree_bit_for_bit(world):
    assert world["provider"].index_root("history") == world["issuer"].index_root("history")
    assert world["provider"].index_root("keyword") == world["issuer"].index_root("keyword")
    assert world["provider"].node.state.root == world["issuer"].node.state.root


def test_certificates_survive_serialization_roundtrip(world):
    from repro.core.certificate import Certificate

    client = world["client"]
    tip = world["issuer"].certified[-1]
    wire = tip.certificate.encode()
    assert client.validate_chain(tip.block.header, Certificate.decode(wire)) in (
        True,
        False,
    )  # decodes and validates without raising


def test_full_broadcast_over_message_bus(world):
    from repro.net import MessageBus, NetworkNode

    bus = MessageBus()
    bus.join(NetworkNode("ci"))
    listener = bus.join(NetworkNode("client"))
    fresh_client = SuperlightClient(
        world["issuer"].measurement, world["ias"].public_key
    )
    listener.on("certificates", fresh_client.adopt)
    bus.subscribe("client", "certificates")
    for certified in world["issuer"].certified:
        bus.publish("ci", "certificates", certified.tip)
    bus.run_until_idle()
    assert fresh_client.latest_header.height == world["chain"].height
