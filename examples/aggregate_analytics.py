"""Verifiable on-chain analytics: aggregates over account history.

The paper (§5.1) notes DCert supports "complex queries such as
aggregations" through certified authenticated indexes.  This example
builds a SmallBank chain, certifies an *aggregate-authenticated* index
over every account's checking balance, and runs verifiable
SUM/AVG/MIN/MAX analytics — the kind of query a BigQuery-style service
answers today with no integrity guarantee (the paper's §1 motivation).

Run with:  python examples/aggregate_analytics.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.chain.vm import VM
from repro.contracts import BLOCKBENCH
from repro.core import (
    CertificateIssuer,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.crypto import generate_keypair
from repro.query import AggregateQuery, QueryAnswer
from repro.query.indexes import BalanceAggregateIndexSpec
from repro.sgx.attestation import AttestationService


def fresh_vm() -> VM:
    vm = VM()
    for factory in BLOCKBENCH.values():
        vm.deploy(factory())
    return vm


def main() -> None:
    user = generate_keypair(b"analytics-user")
    builder = ChainBuilder(difficulty_bits=4, network="analytics")
    nonce = [0]

    def bank(method, *args):
        tx = sign_transaction(
            user.private, nonce[0], "smallbank", method, tuple(args)
        )
        nonce[0] += 1
        return tx

    print("Mining a SmallBank chain (alice pays rent, gets salary)...")
    builder.add_block([bank("create", "alice", "1000", "500"),
                       bank("create", "landlord", "0", "0")])
    for month in range(12):
        builder.add_block([bank("deposit_checking", "alice", "300")])   # salary
        builder.add_block([bank("send_payment", "alice", "landlord", "250")])

    spec = BalanceAggregateIndexSpec(name="balances")
    genesis, state = make_genesis(network="analytics")
    ias = AttestationService(seed=b"analytics-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"analytics-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)
    print(f"Certified {builder.height} blocks + the aggregate index.")

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )
    client = SuperlightClient(measurement, ias.public_key)
    # One call verifies the block certificate and the index certificate
    # together, then adopts both.
    client.adopt(issuer.certified[-1])

    # Analytics through the typed API: alice's balance statistics over
    # the whole year.
    request = AggregateQuery(index="balances", account="alice",
                             t_from=1, t_to=builder.height)
    answer = QueryAnswer(
        request=request,
        payload=issuer.indexes["balances"].query_aggregate(
            "alice", 1, builder.height
        ),
    )
    agg = answer.payload.aggregate
    print(f"\nalice's checking balance across {agg.count} updates:")
    print(f"  min {agg.minimum}, max {agg.maximum}, "
          f"avg {answer.payload.average:.1f}")
    print(f"  proof size: {answer.proof_size_bytes():,} bytes "
          "(flat in the window width — only boundary paths open)")
    assert client.verify_answer(request, answer)
    print("  -> verified against the certified index root")

    # Quarter 1 only.
    q1_request = AggregateQuery(index="balances", account="alice",
                                t_from=1, t_to=7)
    quarterly = QueryAnswer(
        request=q1_request,
        payload=issuer.indexes["balances"].query_aggregate("alice", 1, 7),
    )
    q = quarterly.payload.aggregate
    print(f"\nQ1 ({q.count} updates): min {q.minimum}, max {q.maximum}, "
          f"avg {quarterly.payload.average:.1f}")
    assert client.verify_answer(q1_request, quarterly)

    # A lying analytics provider inflates the average: caught.
    forged = replace(
        answer,
        payload=replace(answer.payload,
                        aggregate=replace(agg, total=agg.total + 10_000)),
    )
    assert not client.verify_answer(request, forged)
    print("\nA provider inflating the SUM by 10,000 is rejected.")


if __name__ == "__main__":
    main()
