"""Verifiable conjunctive keyword search over transactions.

The second half of the paper's §5.4 case study: the SP maintains a
Merkle inverted index (keyword dictionary MPT + per-keyword posting
MB-trees), DCert certifies its root, and a superlight client runs
``[stock AND bank]`` queries whose results are provably complete.

Run with:  python examples/keyword_search.py
"""

from __future__ import annotations


from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.crypto import generate_keypair
from repro.query.api import KeywordQuery, QueryAnswer
from repro.query.indexes import KeywordIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer


DOCUMENTS = [
    "stock bank merger",
    "bank loan approved",
    "stock split announced",
    "grain futures stock bank",
    "weather report sunny",
    "bank holiday notice",
    "stock bank quarterly earnings",
    "election results certified",
]


def main() -> None:
    user = generate_keypair(b"keyword-user")
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for height, text in enumerate(DOCUMENTS, start=1):
        tx = sign_transaction(
            user.private, nonce, "kvstore", "put", (f"doc{height}", text)
        )
        nonce += 1
        builder.add_block([tx])

    spec = KeywordIndexSpec(name="keyword")
    genesis, state = make_genesis()
    ias = AttestationService(seed=b"keyword-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"keyword-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )
    client = SuperlightClient(measurement, ias.public_key)
    # One call verifies the block certificate and the index certificate
    # together, then adopts both.
    client.adopt(issuer.certified[-1].tip)

    request = KeywordQuery(index="keyword", keywords=("stock", "bank"))
    answer = issuer.indexes["keyword"].query_conjunctive(["stock", "bank"])
    print("Query: transactions containing [stock AND bank]")
    for seq in answer.results:
        height, position = seq >> 20, seq & ((1 << 20) - 1)
        print(f"  block {height}, tx {position}: {DOCUMENTS[height - 1]!r}")
    print(f"  proof size: {answer.proof_size_bytes():,} bytes")

    assert client.verify_answer(request, QueryAnswer(request=request, payload=answer))
    print("  -> verified against the certified index root")

    # Completeness: withholding a matching transaction is detected.
    withheld = forge_answer(answer, "withhold", key=answer.results[-1])
    assert not client.verify_answer(
        request, QueryAnswer(request=request, payload=withheld)
    )
    print("An incomplete answer (withheld match) is rejected.")

    # Soundness: injecting a transaction is detected.
    injected = forge_answer(answer, "inject")
    assert not client.verify_answer(
        request, QueryAnswer(request=request, payload=injected)
    )
    print("A padded answer (injected non-match) is rejected.")


if __name__ == "__main__":
    main()
