"""End-to-end: a remote superlight client over a faulty network.

The acceptance scenario for the RPC layer: bootstrap and certified
queries through a gateway fronting two Service Providers while the
link to SP1 drops 30% of messages and a tampering middlebox forges one
response.  The forgery must be *detected* (root verification), never
silently accepted; the gateway fails over and the client still returns
a verified answer.  With every provider dark, the client must fail in
bounded time with ServiceUnavailableError.
"""

import random
from dataclasses import replace

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificateIssuer,
    CertifiedTip,
    IssuerService,
    ClientConfig,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.errors import ServiceUnavailableError
from repro.net import (
    CircuitBreaker,
    FaultInjector,
    LinkFaults,
    MessageBus,
    QueryGateway,
    RpcResponse,
    RpcServer,
)
from repro.net import wire
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    QueryService,
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
from tests.conftest import fresh_vm


@pytest.fixture(scope="module")
def world():
    """A certified chain with all four index families, CI + SP state."""
    user = generate_keypair(b"remote-user")
    builder = ChainBuilder(difficulty_bits=4, network="remote")
    nonce = [0]

    def tx(contract, method, *args):
        signed = sign_transaction(
            user.private, nonce[0], contract, method, tuple(args)
        )
        nonce[0] += 1
        return signed

    builder.add_block([tx("smallbank", "create", "a1", "1000", "500")])
    for round_ in range(6):
        builder.add_block([
            tx("smallbank", "deposit_checking", "a1", "50"),
            tx("kvstore", "put", "acct1", f"v{round_}"),
        ])

    specs = [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]
    genesis, state = make_genesis(network="remote")
    ias = AttestationService(seed=b"remote-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=specs, ias=ias, key_seed=b"remote-enclave",
    )
    sp_genesis, sp_state = make_genesis(network="remote")
    provider = QueryServiceProvider(
        sp_genesis, sp_state, fresh_vm(), builder.pow, specs
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)
        provider.ingest_block(block)

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec for spec in specs},
    )
    return {
        "builder": builder,
        "issuer": issuer,
        "provider": provider,
        "specs": specs,
        "measurement": measurement,
        "ias": ias,
    }


#: The gateway's endpoint: the client's queries leave from here.
GATEWAY = "gateway"


def make_network(world, *, injector=None, issuers=("ci",), providers=None):
    """A client behind a gateway over ``providers`` (replica name ->
    the provider it serves from; default: two honest replicas)."""
    bus = MessageBus(default_latency_ms=20.0)
    if injector is not None:
        bus.install_faults(injector)
    for name in issuers:
        IssuerService(bus, name, world["issuer"])
    providers = providers or {"sp1": world["provider"], "sp2": world["provider"]}
    for name, provider in providers.items():
        QueryService(bus, name, provider)
    client = connect(ClientConfig(
        measurement=world["measurement"],
        ias_public_key=world["ias"].public_key,
        bus=bus, name="client",
        issuers=tuple(issuers),
        gateway=QueryGateway(
            bus, GATEWAY, list(providers),
            timeout_ms=150.0,
        ),
    ))
    return bus, client


class ForgeOneAnswer:
    """A middlebox that drops one version from one query answer —
    a forgery that decodes fine and only root verification can catch."""

    def __init__(self) -> None:
        self.fired = False

    def __call__(self, message: object, rng: random.Random) -> object:
        if self.fired or not isinstance(message, RpcResponse) or not message.ok:
            return message
        answer = wire.decode(message.payload)
        if not isinstance(answer, QueryAnswer):
            return message  # a bootstrap reply; wait for a query answer
        versions = getattr(answer.payload, "versions", ())
        if not versions:
            return message
        self.fired = True
        forged = replace(
            answer, payload=replace(answer.payload, versions=versions[:-1])
        )
        return replace(message, payload=wire.encode(forged))


def test_acceptance_lossy_link_plus_forged_response(world):
    injector = FaultInjector(seed=9)
    forge = ForgeOneAnswer()
    injector.set_link(GATEWAY, "sp1", LinkFaults(drop_rate=0.3))
    injector.set_link(
        "sp1", GATEWAY,
        LinkFaults(drop_rate=0.3, corrupt_rate=1.0, corrupter=forge),
    )
    bus, client = make_network(world, injector=injector)

    client.sync()
    height = world["builder"].height
    assert client.latest_header is not None
    assert client.latest_header.height == height
    assert client.storage_bytes() < 10_000  # still a superlight client

    request = HistoryQuery(
        index="history", account="acct1", t_from=1, t_to=height
    )
    answer = client.query(request)
    assert len(answer.payload.versions) == 6
    assert client.verify_answer(request, answer)
    # A lost sp1 reply fails over before the forger sees it: distinct
    # requests (never a cache hit), a probe interval apart so an ejected
    # sp1 is probed again, until the forged answer lands.
    for t_from in range(2, height):
        if forge.fired:
            break
        bus.run_for(CircuitBreaker.OPEN_MAX_MS * (1.0 + CircuitBreaker.JITTER))
        later = replace(request, t_from=t_from)
        assert client.verify_answer(later, client.query(later))
    # The forgery struck and was *detected*, not silently accepted:
    assert forge.fired
    assert client.integrity_failures >= 1
    assert client.gateway.failovers >= 1  # SP2 served the good answer


def test_all_four_query_types_round_trip_over_rpc(world):
    bus, client = make_network(world)
    client.sync()
    height = world["builder"].height
    provider = world["provider"]

    requests = [
        HistoryQuery(index="history", account="acct1", t_from=1, t_to=height),
        AggregateQuery(index="aggregate", account="a1", t_from=1, t_to=height),
        ValueRangeQuery(index="range", lo=0, hi=10_000),
        KeywordQuery(index="keyword", keywords=("acct1",)),
    ]
    for request in requests:
        answer = client.query(request)
        assert client.verify_answer(request, answer)
        # The wire round trip is lossless: identical to a local execute.
        assert answer == provider.execute(request)


def test_permanent_provider_outage_fails_bounded(world):
    injector = FaultInjector(seed=10)
    for sp in ("sp1", "sp2"):
        injector.set_link(GATEWAY, sp, LinkFaults(drop_rate=1.0))
        injector.set_link(sp, GATEWAY, LinkFaults(drop_rate=1.0))
    bus, client = make_network(world, injector=injector)
    client.sync()  # the issuer link is clean

    before_ms = bus.clock_ms
    request = HistoryQuery(index="history", account="acct1", t_from=1, t_to=2)
    with pytest.raises(ServiceUnavailableError):
        client.query(request)
    # Bounded: the gateway's 4 dispatches (2 replicas x 2 strikes to
    # ejection), each one 150 ms request, not forever.
    assert client.gateway.rpc.timeouts == 4
    assert [s.failures for s in client.gateway.replicas.values()] == [2, 2]
    assert bus.clock_ms - before_ms < 2_000.0


def test_a_stale_replica_is_opened_after_failure_trip_rejected_answers(world):
    """A replica one block behind answers under roots the client no
    longer holds: each answer fails verification and strikes it, and
    ``failure_trip`` of them open its breaker.  Every query is answered
    by the honest replica, and nothing the stale one said is cached."""
    builder = world["builder"]
    stale = QueryServiceProvider(
        *make_genesis(network="remote"), fresh_vm(), builder.pow, world["specs"]
    )
    for block in builder.blocks[1:-1]:
        stale.ingest_block(block)
    honest = world["provider"]
    bus, client = make_network(
        world, providers={"stale": stale, "honest": honest}
    )
    client.sync()
    requests = [
        HistoryQuery(index="history", account="acct1", t_from=t_from,
                     t_to=builder.height - 1)
        for t_from in range(1, 5)
    ]
    for request in requests:
        assert client.query(request) == honest.execute(request)
    failure_trip = CircuitBreaker.FAILURE_TRIP
    replica = client.gateway.replicas["stale"]
    assert (replica.failures, replica.closed) == (failure_trip, False)
    assert client.integrity_failures == failure_trip
    assert client.gateway.replicas["honest"].answered == len(requests)
    # The cache holds the honest answers and nothing else.
    assert len(client.cache) == len(requests)
    for request in requests:
        assert client.query(request) == honest.execute(request)
    assert client.cache.hits == len(requests)
    assert client.integrity_failures == failure_trip


def test_permanent_issuer_outage_fails_bounded(world):
    injector = FaultInjector(seed=11)
    injector.set_link("client", "ci", LinkFaults(drop_rate=1.0))
    bus, client = make_network(world, injector=injector)
    with pytest.raises(ServiceUnavailableError):
        client.sync()
    assert client.latest_header is None


def test_relentless_forgery_on_every_provider_is_never_accepted(world):
    class ForgeAlways(ForgeOneAnswer):
        def __call__(self, message, rng):
            self.fired = False  # re-arm for every response
            return super().__call__(message, rng)

    injector = FaultInjector(seed=12)
    for sp in ("sp1", "sp2"):
        injector.set_link(
            sp, GATEWAY, LinkFaults(corrupt_rate=1.0, corrupter=ForgeAlways())
        )
    bus, client = make_network(world, injector=injector)
    client.sync()
    request = HistoryQuery(
        index="history", account="acct1", t_from=1, t_to=world["builder"].height
    )
    with pytest.raises(ServiceUnavailableError):
        client.query(request)
    assert client.integrity_failures >= 4  # every forgery was detected


# -- transient corruption ----------------------------------------------------


class ForgeOneTip:
    """A middlebox that swaps one index root in exactly one certified
    tip: it decodes fine and only certificate verification catches it."""

    def __init__(self) -> None:
        self.fired = False

    def __call__(self, message: object, rng: random.Random) -> object:
        if self.fired or not isinstance(message, RpcResponse) or not message.ok:
            return message
        tip = wire.decode(message.payload)
        if not isinstance(tip, CertifiedTip):
            return message
        self.fired = True
        roots = {name: bytes(32) for name in tip.index_roots}
        return replace(message, payload=wire.encode(replace(tip, index_roots=roots)))


def test_a_transiently_corrupted_answer_is_one_strike_not_an_ejection(world):
    """sp1 forges only its first answer: the gateway fails over, the
    client is answered, and sp1 keeps its place in the rotation."""
    injector = FaultInjector(seed=13)
    forge = ForgeOneAnswer()
    injector.set_link("sp1", GATEWAY, LinkFaults(corrupt_rate=1.0, corrupter=forge))
    bus, client = make_network(world, injector=injector)
    client.sync()
    request = HistoryQuery(
        index="history", account="acct1", t_from=1, t_to=world["builder"].height
    )
    assert client.query(request) == world["provider"].execute(request)
    assert forge.fired
    assert client.integrity_failures == 1
    sp1 = client.gateway.replicas["sp1"]
    assert client.gateway.failovers == 1
    assert (sp1.failures, sp1.closed) == (1, True)  # failure_trip is 2
    later = replace(request, t_from=2)
    assert client.query(later) == world["provider"].execute(later)
    assert client.integrity_failures == 1


def test_a_transiently_corrupted_tip_moves_on_to_the_next_issuer(world):
    injector = FaultInjector(seed=14)
    forge = ForgeOneTip()
    injector.set_link("ci1", "client", LinkFaults(corrupt_rate=1.0, corrupter=forge))
    injector.set_link("ci2", "client", LinkFaults())  # counted, not faulted
    bus, client = make_network(world, injector=injector, issuers=("ci1", "ci2"))
    tip = client.sync()
    assert forge.fired
    assert tip.header == client.latest_header
    assert client.latest_header.height == world["builder"].height
    assert client.integrity_failures == 1
    # One call per issuer: ci1 is not asked again, ci2 served the tip.
    replies = injector.summary()
    assert replies["ci1->client"]["delivered"] == replies["ci2->client"]["delivered"] == 1


def test_sync_asks_every_issuer_and_holds_the_newest_tip(world):
    """The first issuer lags (it serves a tip two blocks old, as one
    recovering after a crash would): a sync asks both issuers, once
    each, and the client reaches the second's tip.  The tip returned is
    the one the client holds, also when it already held a newer tip
    than any issuer served.  The clients have gateways, so they hold
    index roots; a tip-only client holds, and returns, the header and
    certificate only."""
    height = world["builder"].height
    newest = world["issuer"].certified[-1].tip
    behind = world["issuer"].certified[-3].tip
    assert (behind.header.height, newest.header.height) == (height - 2, height)
    bus = MessageBus(default_latency_ms=20.0)
    RpcServer(bus, "lagging").register("latest_tip", lambda _argument: behind)
    IssuerService(bus, "ci", world["issuer"])

    def polling(name, issuers, gateway=True):
        return connect(ClientConfig(
            measurement=world["measurement"],
            ias_public_key=world["ias"].public_key,
            bus=bus, name=name, issuers=issuers,
            gateway=QueryGateway(bus, f"{name}-gw", ["sp"]) if gateway else None,
        ))

    orders = {"lag-first": ("lagging", "ci"), "lag-last": ("ci", "lagging")}
    for name, issuers in orders.items():
        client = polling(name, issuers)
        tip = client.sync()
        assert client.latest_header == newest.header, name
        assert tip == newest, name
        assert client.integrity_failures == 0
    ahead = polling("ahead", ("lagging",))
    assert ahead.adopt(newest)
    tip = ahead.sync()
    assert ahead.latest_header == newest.header
    assert (tip.header, tip.certificate) == (newest.header, newest.certificate)
    tip_only = polling("tip-only", ("lagging", "ci"), gateway=False)
    assert tip_only.sync() == CertifiedTip(newest.header, newest.certificate, {}, {})


def test_a_single_issuers_corrupted_tip_fails_that_sync_only(world):
    """With nowhere else to go the sync raises; the client's state is
    untouched, and its next sync (the retry) adopts."""
    injector = FaultInjector(seed=15)
    forge = ForgeOneTip()
    injector.set_link("ci", "client", LinkFaults(corrupt_rate=1.0, corrupter=forge))
    bus, client = make_network(world, injector=injector)
    before = client.to_json()
    with pytest.raises(ServiceUnavailableError):
        client.sync()
    assert forge.fired
    assert client.integrity_failures == 1
    assert client.to_json() == before
    client.sync()
    assert client.latest_header.height == world["builder"].height
    assert client.integrity_failures == 1
