"""Verifiable historical account queries (the paper's §5.4 case study).

A Service Provider maintains DCert's two-level authenticated index
(Merkle Patricia Trie over accounts, Merkle B-tree over each account's
timestamped versions).  The CI's enclave certifies the index root after
every block, so a superlight client can

* ask "what values did account X have between blocks 10 and 25?",
* verify the answer is complete and untampered, and
* catch a malicious SP that drops or alters versions.

Run with:  python examples/historical_queries.py
"""

from __future__ import annotations

from dataclasses import replace

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
from repro.query import HistoryQuery, QueryAnswer
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer


def main() -> None:
    accounts = [f"acct{i}" for i in range(5)]
    user = generate_keypair(b"history-user")

    # Mine a chain where accounts get updated over time.
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for height in range(1, 41):
        txs = []
        account = accounts[height % len(accounts)]
        txs.append(
            sign_transaction(
                user.private, nonce, "kvstore", "put",
                (account, f"balance-{height}"),
            )
        )
        nonce += 1
        builder.add_block(txs)

    # CI certifies blocks *and* the history index.
    spec = AccountHistoryIndexSpec(name="history")
    genesis, state = make_genesis()
    ias = AttestationService(seed=b"history-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"history-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)
    print(f"Certified {builder.height} blocks + index roots.")

    # Superlight client adopts the latest block and index certificates.
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )
    client = SuperlightClient(measurement, ias.public_key)
    client.adopt(issuer.certified[-1].tip)
    print("Superlight client validated the chain and the index certificate.")

    # Query through the typed API: history of acct2 between blocks 10
    # and 30.  (The CI doubles as the SP here; see certificate_network.py
    # and faulty_network.py for topologies where they are separate nodes.)
    request = HistoryQuery(index="history", account="acct2", t_from=10, t_to=30)
    answer = QueryAnswer(
        request=request,
        payload=issuer.indexes["history"].query_history("acct2", 10, 30),
    )
    print(f"\nQuery: versions of acct2 in window [10, 30]")
    for timestamp, value in answer.payload.versions:
        print(f"  block {timestamp}: {value.decode()}")
    print(f"  proof size: {answer.proof_size_bytes():,} bytes")

    assert client.verify_answer(request, answer)
    print("  -> verified against the certified index root")

    # The versions are read from the range proof, so a malicious SP
    # edits the proof: it withholds a version (ships only its digest)...
    tampered = forge_answer(answer, "withhold")
    assert tampered.payload.versions == answer.payload.versions[1:]
    assert not client.verify_answer(request, tampered)
    print("A tampered answer (withheld version) is rejected.")

    # ...or forges a value.
    forged = forge_answer(answer, "alter")
    assert not client.verify_answer(request, forged)
    print("A forged answer (altered value) is rejected.")

    # ...or answers a *different* (cheaper) query: the request echo
    # check catches it even though the proof itself verifies.
    narrower = QueryAnswer(
        request=replace(request, t_to=20),
        payload=issuer.indexes["history"].query_history("acct2", 10, 20),
    )
    assert not client.verify_answer(request, narrower)
    print("An answer to a different query than asked is rejected.")


if __name__ == "__main__":
    main()
