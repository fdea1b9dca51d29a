"""Chaos against the replicated query tier.

The claim under test: whatever the fault layer does to individual
replicas — crashes at the query.execute.* crashpoints, dropped links,
forged answers — a client fronted by the QueryGateway always ends a
query with either a **verified** answer or a **typed** error.  Never a
stale or unverified answer, never an unbounded hang.

Crashed replicas are supervised (ServiceSupervisor): the crash pauses
the endpoint (requests vanish like against a dead host), the supervisor
restores it after a doubling delay, and the gateway's probe path brings
it back into rotation — composing PR 4's crash-restart loop with this
PR's health-aware routing.
"""

import random
from dataclasses import replace

import pytest

from repro.core import (
    IssuerService,
    ClientConfig,
    connect,
    compute_expected_measurement,
)
from repro.errors import ReproError
from repro.fault.crashpoints import crash_armed
from repro.net import (
    FaultInjector,
    LinkFaults,
    MessageBus,
    QueryGateway,
    RpcResponse,
    ServiceSupervisor,
    wire,
)
from repro.query import HistoryQuery, KeywordQuery, QueryAnswer, QueryService
from repro.query.provider import QueryServiceProvider
from repro.chain.genesis import make_genesis
from tests.conftest import fresh_vm

pytestmark = pytest.mark.chaos

REPLICAS = ("sp1", "sp2", "sp3")


@pytest.fixture(scope="module")
def fleet_world(certified_setup):
    chain = certified_setup["chain"]
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), chain.pow,
        list(certified_setup["specs"].values()),
    )
    for block in chain.blocks[1:]:
        provider.ingest_block(block)
    measurement = compute_expected_measurement(
        certified_setup["genesis"].header.header_hash(),
        certified_setup["ias"].public_key,
        fresh_vm(),
        chain.pow.difficulty_bits,
        certified_setup["specs"],
    )
    return {
        "issuer": certified_setup["issuer"],
        "ias": certified_setup["ias"],
        "provider": provider,
        "measurement": measurement,
    }


def make_fleet(fleet_world, *, injector=None, seed=0):
    bus = MessageBus(default_latency_ms=10.0)
    if injector is not None:
        bus.install_faults(injector)
    IssuerService(bus, "ci", fleet_world["issuer"])
    provider = fleet_world["provider"]
    services, supervisors = {}, {}
    for name in REPLICAS:
        service = QueryService(bus, name, provider)
        services[name] = service
        supervisors[name] = ServiceSupervisor(
            service,
            lambda: provider,  # a read-only SP restarts with state intact
        )
    gateway = QueryGateway(
        bus, "gw", REPLICAS,
        timeout_ms=120.0,
    )
    client = connect(ClientConfig(
        measurement=fleet_world["measurement"],
        ias_public_key=fleet_world["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=gateway,
    ))
    client.sync()
    return bus, client, gateway, services, supervisors


REQUESTS = tuple(
    HistoryQuery(index="history", account=f"k{i}", t_from=1, t_to=10)
    for i in range(4)
) + (KeywordQuery(index="keyword", keywords=("v2",)),)


def test_crash_sweep_client_always_gets_verified_answer(fleet_world):
    """Sweep both query crashpoints over several hits and seeds: every
    query ends in a verified answer (failover) or a typed error."""
    fired = 0
    for point in ("query.execute.pre", "query.execute.post"):
        for hit in (1, 2, 4):
            for seed in (0, 1):
                bus, client, gateway, services, supervisors = make_fleet(
                    fleet_world, seed=seed
                )
                with crash_armed(point, hit=hit, seed=seed) as schedule:
                    for request in REQUESTS:
                        try:
                            answer = client.query(request)
                        except ReproError:
                            continue  # typed failure: acceptable
                        assert isinstance(answer, QueryAnswer)
                        assert client.verify_answer(request, answer)
                if schedule.fired:
                    fired += 1
                    crashed = [
                        s for s in supervisors.values() if s.crashes >= 1
                    ]
                    assert crashed, "a crash must be seen by a supervisor"
    assert fired >= 8, "the sweep must actually exercise crashes"


def test_crashed_replica_is_restarted_and_probed_back(fleet_world, monkeypatch):
    # The crashed replica stays down long enough to draw its second
    # liveness strike (CircuitBreaker.FAILURE_TRIP) and leave rotation.
    monkeypatch.setattr(ServiceSupervisor, "RESTART_DELAY_MS", 400.0)
    bus, client, gateway, services, supervisors = make_fleet(fleet_world)
    with crash_armed("query.execute.pre", hit=1) as schedule:
        answer = client.query(REQUESTS[0])
    assert schedule.fired
    assert isinstance(answer, QueryAnswer)  # failover served it
    crashed_name = next(
        name for name, sup in supervisors.items() if sup.crashes == 1
    )
    state = gateway.replicas[crashed_name]
    assert state.failures == 1
    for request in REQUESTS[1:]:
        if not state.closed:
            break
        assert isinstance(client.query(request), QueryAnswer)
    assert not state.closed and state.failures == 2
    assert supervisors[crashed_name].restarts == 0  # still down
    # Supervisor restores the endpoint; the gateway probe readmits it.
    bus.run_for(600.0)
    for i in range(12):
        client.query(
            HistoryQuery(index="history", account=f"k{i % 4}", t_from=1, t_to=i + 1)
        )
    assert supervisors[crashed_name].restarts == 1
    assert gateway.replicas[crashed_name].closed


def test_dropped_links_sweep(fleet_world):
    """Two of three replicas behind lossy links across seeds: the fleet
    still serves verified answers."""
    for seed in (1, 2, 3):
        injector = FaultInjector(seed=seed)
        for sp in ("sp1", "sp2"):
            injector.set_link("gw", sp, LinkFaults(drop_rate=0.6))
            injector.set_link(sp, "gw", LinkFaults(drop_rate=0.6))
        bus, client, gateway, services, supervisors = make_fleet(
            fleet_world, injector=injector, seed=seed
        )
        for request in REQUESTS:
            answer = client.query(request)
            assert client.verify_answer(request, answer)


def test_forged_fleet_answers_detected_never_accepted(fleet_world):
    """A replica serving forged answers is caught by verification and
    the client completes against an honest replica."""

    class ForgeAlways:
        def __init__(self):
            self.struck = 0

        def __call__(self, message, rng: random.Random):
            if not isinstance(message, RpcResponse) or not message.ok:
                return message
            decoded = wire.decode(message.payload)
            if not isinstance(decoded, QueryAnswer):
                return message
            versions = getattr(decoded.payload, "versions", ())
            if not versions:
                return message
            self.struck += 1
            forged = replace(
                decoded,
                payload=replace(decoded.payload, versions=versions[:-1]),
            )
            return replace(message, payload=wire.encode(forged))

    forge = ForgeAlways()
    injector = FaultInjector(seed=5)
    injector.set_link(
        "sp1", "gw", LinkFaults(corrupt_rate=1.0, corrupter=forge)
    )
    bus, client, gateway, services, supervisors = make_fleet(
        fleet_world, injector=injector
    )
    served = 0
    for account in ("k0", "k1", "k2", "k3"):
        request = HistoryQuery(index="history", account=account, t_from=1, t_to=10)
        try:
            answer = client.query(request)
        except ReproError:
            continue  # typed failure: acceptable, never a silent forgery
        assert client.verify_answer(request, answer)
        served += 1
    assert served >= 2
    if forge.struck:
        assert client.integrity_failures >= 1


def test_fleet_answers_match_local_execute_byte_for_byte(fleet_world):
    bus, client, gateway, services, supervisors = make_fleet(fleet_world)
    provider = fleet_world["provider"]
    for request in REQUESTS:
        remote = client.query(request)
        assert wire.encode(remote) == wire.encode(provider.execute(request))
