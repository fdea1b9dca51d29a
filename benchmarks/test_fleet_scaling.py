"""Fleet scaling — query throughput vs replica count, and the cache.

The gateway's pipelined dispatch (``call_many``) over busy-worker
replicas (``service_time_ms``) is what makes replica count matter on
the virtual clock: M queries over N single-threaded replicas complete
in roughly M/N service times instead of M.  The sweep below serves the
same query batch against fleets of 1, 2, and 4 replicas and reports
modeled throughput; the second benchmark repeats a served batch and
shows the warm verified-answer cache doing zero RPC round trips.

Reproduced claims:

* 4 replicas serve the batch at >= 2.5x the modeled throughput of 1
  (sublinear only because of per-batch fixed costs: switch
  verification, bus latency);
* a warm cache hit performs no network round trips at all — the
  answer was already verified at the current certified roots.

``REPRO_FLEET_QUERIES`` overrides the batch size (default 24).
"""

from __future__ import annotations

import os

from repro.bench.harness import fresh_vm
from repro.bench.reporting import bench_record, print_table
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    compute_expected_measurement,
    connect,
)
from repro.core.issuer import IssuerService
from repro.net import MessageBus, QueryGateway
from repro.query import HistoryQuery, QueryService
from repro.query.indexes import AccountHistoryIndexSpec
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import cost_model_disabled
from repro.crypto import generate_keypair

_NETWORK = "fleet-bench"
_BLOCKS = 8
_SERVICE_MS = 50.0
_FLEETS = (1, 2, 4)


def _batch_size() -> int:
    return int(os.environ.get("REPRO_FLEET_QUERIES", "24"))


def _build_world():
    """One certified chain shared by every fleet size."""
    keypair = generate_keypair(b"fleet-bench-user")
    builder = ChainBuilder(difficulty_bits=4, network=_NETWORK)
    genesis, state = make_genesis(network=_NETWORK)
    ias = AttestationService(seed=b"fleet-bench-ias")
    # One index: the batches query only the history family.
    specs = [AccountHistoryIndexSpec(name="history")]
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=specs, ias=ias, key_seed=b"fleet-bench-enclave",
    )
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, specs
    )
    nonce = 0
    for _ in range(_BLOCKS):
        txs = []
        for _ in range(3):
            txs.append(sign_transaction(
                keypair.private, nonce, "kvstore", "put",
                (f"k{nonce % 4}", f"v{nonce}"),
            ))
            nonce += 1
        block, _ = builder.add_block(txs)
        issuer.process_block(block)
        provider.ingest_block(block)
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec for spec in specs},
    )
    return issuer, provider, measurement, ias


def _make_fleet(world, replicas: int, queries: int):
    issuer, provider, measurement, ias = world
    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", issuer)
    names = [f"sp{i + 1}" for i in range(replicas)]
    for name in names:
        QueryService(bus, name, provider, service_time_ms=_SERVICE_MS)
    gateway = QueryGateway(
        bus, "gw", names,
        timeout_ms=_SERVICE_MS * (queries + 4) + 1_000.0,
    )
    client = connect(ClientConfig(
        measurement=measurement, ias_public_key=ias.public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=gateway,
    ))
    client.sync()
    return bus, client, gateway


def _requests(queries: int):
    return [
        HistoryQuery(
            index="history",
            account=f"k{i % 4}",
            t_from=1,
            t_to=1 + i % _BLOCKS,
        )
        for i in range(queries)
    ]


def test_throughput_scales_with_replicas():
    queries = _batch_size()
    requests = _requests(queries)
    with cost_model_disabled():  # the busy model, not ecall charges
        world = _build_world()
        rows, record, throughput = [], {}, {}
        for replicas in _FLEETS:
            bus, client, gateway = _make_fleet(world, replicas, queries)
            started = bus.clock_ms
            answers = client.query_many(requests)
            elapsed_ms = bus.clock_ms - started
            assert len(answers) == queries
            qps = queries / (elapsed_ms / 1000.0)
            throughput[replicas] = qps
            rows.append([
                replicas, queries, round(elapsed_ms, 1), round(qps, 1),
                round(qps / throughput[_FLEETS[0]], 2),
            ])
            record[f"replicas{replicas}"] = {
                "replicas": replicas,
                "queries": queries,
                "virtual_ms": elapsed_ms,
                "modeled_qps": qps,
            }
    print_table(
        f"Fleet throughput vs replica count "
        f"({queries} queries, {_SERVICE_MS:.0f} ms service time)",
        ["replicas", "queries", "virtual ms", "modeled q/s", "speedup"],
        rows,
    )
    bench_record("fleet_scaling", record)

    # Reproduced claim: 4 replicas >= 2.5x the throughput of 1.
    speedup = throughput[4] / throughput[1]
    assert speedup >= 2.5, (
        f"4-replica fleet only {speedup:.2f}x a single replica"
    )
    assert throughput[2] > throughput[1]


def test_warm_cache_hits_do_zero_round_trips():
    queries = _batch_size()
    requests = _requests(queries)
    with cost_model_disabled():
        world = _build_world()
        bus, client, gateway = _make_fleet(world, 2, queries)
        cold = client.query_many(requests)
        calls_before = client.rpc.calls + gateway.rpc.calls
        clock_before = bus.clock_ms
        warm = client.query_many(requests)
    assert warm == cold
    assert client.rpc.calls + gateway.rpc.calls == calls_before, (
        "warm cache hits must not touch the network"
    )
    assert bus.clock_ms == clock_before  # not even virtual time passes
    assert client.cache.hits >= queries
    print_table(
        "Warm verified-answer cache",
        ["batch", "cold rpc calls", "warm rpc calls", "cache hits"],
        [[queries, calls_before, 0, client.cache.hits]],
    )
    bench_record(
        "fleet_cache",
        {
            "batch": queries,
            "cold_rpc_calls": calls_before,
            "warm_rpc_calls": 0,
            "cache_hits": client.cache.hits,
        },
    )
