"""A multi-node DCert deployment over the simulated network (Fig. 2).

Topology: one miner publishes blocks; a Certificate Issuer (full node +
enclave) certifies each block and broadcasts its certified tip; a
Service Provider (full node + indexes) ingests blocks; three superlight
clients subscribe only to certificates and track the chain tip.

Run with:  python examples/certificate_network.py
"""

from __future__ import annotations

from repro.bench import BenchParams, WorkloadGenerator
from repro.chain import Block, ChainBuilder
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.net import MessageBus, NetworkNode
from repro.query import HistoryQuery
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService


def main() -> None:
    params = BenchParams(name="example")
    generator = WorkloadGenerator(params, seed=3)
    builder = ChainBuilder(difficulty_bits=4, network="netdemo")
    spec = AccountHistoryIndexSpec(name="history")
    genesis, state = make_genesis(network="netdemo")
    ias = AttestationService(seed=b"net-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"net-enclave",
    )
    from repro.query.provider import QueryServiceProvider

    sp_genesis, sp_state = make_genesis(network="netdemo")
    provider = QueryServiceProvider(
        sp_genesis, sp_state, fresh_vm(), builder.pow, [spec]
    )

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )

    bus = MessageBus(default_latency_ms=40.0)
    miner_node = bus.join(NetworkNode("miner"))
    ci_node = bus.join(NetworkNode("ci"))
    sp_node = bus.join(NetworkNode("sp"))
    clients = [
        (bus.join(NetworkNode(f"client{i}")), SuperlightClient(measurement, ias.public_key))
        for i in range(3)
    ]

    # Wire up behaviour: the CI certifies blocks and broadcasts each
    # certified tip; the SP ingests blocks; clients validate tips.
    def ci_handles_block(block: Block) -> None:
        certified = issuer.process_block(block)
        bus.publish("ci", "certificates", certified.tip)

    ci_node.on("blocks", ci_handles_block)
    sp_node.on("blocks", provider.ingest_block)

    # A CertifiedTip carries the header, its certificate and the index
    # roots + certificates: adopt() verifies all of it, then moves the
    # client.
    for node, client in clients:
        node.on("certificates", client.adopt)
        bus.subscribe(node.name, "certificates")
    bus.subscribe("ci", "blocks")
    bus.subscribe("sp", "blocks")

    # The miner produces blocks and announces them.
    print("Mining and broadcasting 10 blocks...")
    for _ in range(10):
        block, _ = builder.add_block(generator.block_txs("KV", 4))
        bus.publish("miner", "blocks", block)
    delivered = bus.run_until_idle()
    print(f"  delivered {delivered} messages "
          f"(virtual network time: {bus.clock_ms:.0f} ms)")

    for index, (_, client) in enumerate(clients):
        assert client.latest_header is not None
        print(f"  client{index}: tip height {client.latest_header.height}, "
              f"stores {client.storage_bytes():,} bytes")

    # Query the SP through the typed API and verify against the
    # certificate-tracked root with the unified entry point.
    request = HistoryQuery(index="history", account="i0:k0", t_from=1,
                           t_to=builder.height)
    answer = provider.execute(request)
    _, client0 = clients[0]
    print(f"\nSP answered a history query with {len(answer.payload.versions)} "
          f"versions; client verification: "
          f"{client0.verify_answer(request, answer)}")


if __name__ == "__main__":
    main()
