"""Augmented vs hierarchical certificates as indexes multiply (§5.2).

DCert offers two ways to certify authenticated indexes:

* the **augmented** certificate (Alg. 4) binds block verification and
  index verification into one ecall — great for a single index, but it
  *re-verifies the whole block once per index*;
* the **hierarchical** certificate (Alg. 5) issues the block
  certificate once, then certifies each index against it with a cheap
  extra ecall.

This example certifies the same blocks under both schemes with 1..4
indexes and prints the construction-time crossover the paper shows in
Fig. 10 (augmented wins at exactly one index by saving an ecall;
hierarchical wins thereafter).

Run with:  python examples/multi_index_certification.py
"""

from __future__ import annotations

import time

from repro.bench import BenchParams, WorkloadGenerator
from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core import CertificateIssuer
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.sgx.attestation import AttestationService


def make_specs(count: int) -> list:
    """``count`` distinct index specs (alternating the two families)."""
    specs = []
    for index in range(count):
        if index % 2 == 0:
            specs.append(AccountHistoryIndexSpec(name=f"history{index}"))
        else:
            specs.append(KeywordIndexSpec(name=f"keyword{index}"))
    return specs


def certify_with(scheme: str, num_indexes: int, blocks: list) -> float:
    """Mean per-block certification time under one scheme (seconds)."""
    genesis, state = make_genesis(network="multi-index")
    ias = AttestationService(seed=b"multi-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), POW,
        index_specs=make_specs(num_indexes), ias=ias,
        key_seed=b"multi-enclave",
    )
    started = time.perf_counter()
    for block in blocks:
        issuer.process_block(block, schemes=(scheme,))
    return (time.perf_counter() - started) / len(blocks)


def main() -> None:
    global POW
    params = BenchParams(name="example")
    generator = WorkloadGenerator(params, seed=7)
    builder = ChainBuilder(difficulty_bits=4, network="multi-index")
    POW = builder.pow
    for _ in range(5):
        builder.add_block(generator.block_txs("KV", 8))
    blocks = builder.blocks[1:]

    print(f"{'#indexes':>8}  {'augmented':>12}  {'hierarchical':>12}")
    for count in (1, 2, 3, 4):
        augmented_s = certify_with("augmented", count, blocks)
        hierarchical_s = certify_with("hierarchical", count, blocks)
        marker = "<- augmented wins" if augmented_s < hierarchical_s else ""
        print(
            f"{count:>8}  {augmented_s * 1000:>10.1f}ms  "
            f"{hierarchical_s * 1000:>10.1f}ms  {marker}"
        )
    print(
        "\nAugmented re-runs full block verification per index; "
        "hierarchical verifies the block once and reuses its certificate."
    )


if __name__ == "__main__":
    main()
