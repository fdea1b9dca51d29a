"""Supervised issuer restart, observable end-to-end over the bus.

The acceptance scenario: an issuer dies mid-``certify_range`` (crash
injected at each crashpoint of the one certification path), the
supervisor restores
it from the durable archive with bounded backoff, and the same remote
client — which never saw anything but timeouts — completes its calls
against the restarted issuer *without re-attestation* (sealed key keeps
``pk_enc`` stable, cached attestation report stays valid).
"""

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    IssuerService,
    ClientConfig,
    connect,
    compute_expected_measurement,
)
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.fault.crashpoints import crash_armed
from repro.net import IssuerSupervisor, MessageBus, RestartPolicy, RetryPolicy
from repro.net.rpc import RpcClient
from repro.query import HistoryQuery, QueryService
from repro.query.indexes import AccountHistoryIndexSpec
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

NETWORK = "supervised"


@pytest.fixture(scope="module")
def chain():
    user = generate_keypair(b"supervised-user")
    builder = ChainBuilder(difficulty_bits=4, network=NETWORK)
    nonce = [0]
    for round_ in range(8):
        builder.add_block([
            sign_transaction(
                user.private, nonce[0], "kvstore", "put",
                ("acct1", f"v{round_}"),
            )
        ])
        nonce[0] += 1
    return builder


def create_durable(chain, path):
    """A fresh durable issuer under the one identity this file uses."""
    spec = AccountHistoryIndexSpec(name="history")
    ias = AttestationService(seed=b"supervised-ias")
    platform = SGXPlatform(seed=b"supervised-platform")
    archive = ChainArchive(path)
    genesis, state = make_genesis(network=NETWORK)
    durable = DurableIssuer.create(
        archive, genesis, state, fresh_vm(), chain.pow,
        index_specs=[spec], platform=platform, ias=ias,
        key_seed=b"supervised-enclave", checkpoint_interval=3,
    )
    return durable, archive, genesis, spec, ias, platform


@pytest.fixture()
def world(chain, tmp_path):
    durable, archive, genesis, spec, ias, platform = create_durable(
        chain, tmp_path / "ci.wal"
    )
    # Certify half the chain before the network comes up.
    for block in chain.blocks[1:5]:
        durable.process_block(block)

    sp_genesis, sp_state = make_genesis(network=NETWORK)
    provider = QueryServiceProvider(
        sp_genesis, sp_state, fresh_vm(), chain.pow, [spec]
    )
    for block in chain.blocks[1:]:
        provider.ingest_block(block)

    def restore():
        genesis2, state2 = make_genesis(network=NETWORK)
        return recover_issuer(
            archive, genesis2, state2, fresh_vm(), chain.pow,
            index_specs=[spec], platform=platform, ias=ias,
            checkpoint_interval=3,
        )

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        chain.pow.difficulty_bits, {spec.name: spec},
    )
    return {
        "chain": chain,
        "durable": durable,
        "archive": archive,
        "provider": provider,
        "restore": restore,
        "measurement": measurement,
        "ias": ias,
    }


def make_network(world):
    bus = MessageBus(default_latency_ms=10.0)
    service = IssuerService(bus, "ci", world["durable"])
    supervisor = IssuerSupervisor(
        service, world["restore"],
        policy=RestartPolicy(max_attempts=3, backoff_base_ms=40.0),
    )
    QueryService(bus, "sp", world["provider"])
    client = connect(ClientConfig(
        measurement=world["measurement"],
        ias_public_key=world["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), providers=("sp",),
        policy=RetryPolicy(
            timeout_ms=150.0, max_attempts=4, backoff_base_ms=20.0
        ),
    ))
    return bus, service, supervisor, client


@pytest.fixture(scope="module")
def no_crash_certificates(chain, tmp_path_factory):
    """``height -> encoded block certificate`` from an issuer of the same
    identity that never crashed."""
    durable = create_durable(
        chain, tmp_path_factory.mktemp("no-crash") / "ci.wal"
    )[0]
    return {
        block.header.height: durable.process_block(block).certificate.encode()
        for block in chain.blocks[1:]
    }


#: Blocks 6..8 on a world certified to height 5 with a checkpoint every
#: 3: the second checkpoint of the range would be at height 9.
UNREACHED = {("archive.checkpoint.pre_rename", 2)}


@pytest.mark.parametrize(
    "point,hit",
    [
        pytest.param(point, hit, id=point if hit == 1 else f"{point}@{hit}")
        for point in ("issuer.process_block.pre", "issuer.process_block.post",
                      "durable.append.pre_wal", "wal.append.torn_write",
                      "archive.checkpoint.pre_rename")
        for hit in (1, 2)
    ],
)
def test_crash_mid_certify_range_supervised_restart(
    world, no_crash_certificates, point, hit
):
    world["durable"].process_block(world["chain"].blocks[5])
    bus, service, supervisor, client = make_network(world)
    client.bootstrap()
    assert client.latest_header.height == 5
    assert len(client.client._verified_reports) == 1
    pk_before = service.issuer.pk_enc.to_bytes()

    # A miner submits the last three blocks; the issuer dies mid-call.
    miner = RpcClient(
        bus, "miner",
        policy=RetryPolicy(timeout_ms=200.0, max_attempts=5,
                           backoff_base_ms=30.0),
    )
    blocks = world["chain"].blocks[6:]
    with crash_armed(point, hit=hit) as schedule:
        tips = miner.call("ci", "certify_range", tuple(blocks))
    assert schedule.fired == ((point, hit) not in UNREACHED)
    assert supervisor.crashes == supervisor.restarts == int(schedule.fired)
    assert supervisor.gave_up is False
    # The retried call completed against the *restored* issuer, with the
    # certificates an issuer that never crashed produces.
    assert [tip.header.height for tip in tips] == [6, 7, 8]
    assert (service.issuer is not world["durable"]) == schedule.fired
    for tip in tips:
        assert tip.certificate.encode() == no_crash_certificates[tip.header.height]

    # Same pk_enc across the restart: the sealed key survived.
    assert service.issuer.pk_enc.to_bytes() == pk_before
    # One WAL record per height: nothing was certified twice.
    entries = world["archive"].load().entries
    assert [entry.block.header.height for entry in entries] == list(range(1, 9))

    # The client completes a query against the restarted issuer without
    # re-attestation: the cached report verification still matches.
    client.sync()
    assert client.latest_header.height == 8
    request = HistoryQuery(index="history", account="acct1", t_from=1, t_to=8)
    answer = client.query(request)
    assert client.client.verify_answer(request, answer)
    assert len(client.client._verified_reports) == 1  # no re-attestation


def test_certify_range_idempotent_across_crash(world):
    """Certificates that were durable before the crash are answered from
    the archive on retry — byte-identical, not re-issued diverging."""
    bus, service, supervisor, client = make_network(world)
    blocks = world["chain"].blocks[5:]
    miner = RpcClient(
        bus, "miner",
        policy=RetryPolicy(timeout_ms=200.0, max_attempts=5,
                           backoff_base_ms=30.0),
    )
    # Crash *after* the WAL append of the first new block: height 5 is
    # durable, the response is lost, the retry re-sends 5..8.
    with crash_armed("wal.append.post_fsync", hit=2) as schedule:
        tips = miner.call("ci", "certify_range", tuple(blocks))
    assert schedule.fired
    assert [tip.header.height for tip in tips] == [5, 6, 7, 8]
    # The archive holds exactly one certificate per height, and the
    # served tips match it byte for byte.
    contents = world["archive"].load()
    heights = [entry.block.header.height for entry in contents.entries]
    assert heights == [1, 2, 3, 4, 5, 6, 7, 8]
    by_height = {
        entry.block.header.height: entry for entry in contents.entries
    }
    for tip in tips:
        assert (
            by_height[tip.header.height].certificate.encode()
            == tip.certificate.encode()
        )


def test_supervisor_gives_up_after_bounded_attempts(world, tmp_path):
    bus, service, supervisor, client = make_network(world)

    calls = []

    def failing_restore():
        calls.append(1)
        raise RuntimeError("archive volume offline")

    supervisor.restore = failing_restore
    miner = RpcClient(
        bus, "miner",
        policy=RetryPolicy(timeout_ms=150.0, max_attempts=2,
                           backoff_base_ms=20.0),
    )
    from repro.errors import RpcTimeoutError

    with crash_armed("issuer.process_block.pre"):
        with pytest.raises(RpcTimeoutError):
            miner.call("ci", "certify_range", tuple(world["chain"].blocks[5:]))
    bus.run_for(5_000.0)  # let every scheduled restart attempt fire
    assert supervisor.gave_up
    assert len(calls) == 3  # RestartPolicy(max_attempts=3)
    assert service.server.paused  # endpoint stays dark
