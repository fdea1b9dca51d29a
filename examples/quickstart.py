"""Quickstart: certify a chain and bootstrap a superlight client.

This walks the full DCert story end to end:

1. mine a small KVStore chain,
2. run an SGX-enabled Certificate Issuer that certifies every block,
3. bootstrap a *traditional* light client (it must fetch and validate
   every header), and
4. bootstrap a DCert *superlight* client from just the latest header
   and certificate — then compare their storage and validation costs.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.chain import ChainBuilder, LightClient
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.crypto import generate_keypair
from repro.sgx.attestation import AttestationService


def main() -> None:
    # --- 1. Mine a chain ---------------------------------------------------
    print("Mining a 30-block KVStore chain...")
    user = generate_keypair(b"quickstart-user")
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for height in range(30):
        txs = []
        for _ in range(4):
            txs.append(
                sign_transaction(
                    user.private, nonce, "kvstore", "put",
                    (f"key{nonce % 7}", f"value-{nonce}"),
                )
            )
            nonce += 1
        builder.add_block(txs)
    print(f"  chain height: {builder.height}")

    # --- 2. The Certificate Issuer certifies every block --------------------
    print("Starting an SGX-enabled Certificate Issuer (simulated enclave)...")
    genesis, state = make_genesis()
    ias = AttestationService(seed=b"quickstart-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow, ias=ias,
        key_seed=b"quickstart-enclave",
    )
    started = time.perf_counter()
    for block in builder.blocks[1:]:
        issuer.process_block(block)
    per_block_ms = (time.perf_counter() - started) / builder.height * 1000
    print(f"  certified {builder.height} blocks "
          f"({per_block_ms:.0f} ms/block — well under a block interval)")

    # --- 3. Traditional light client ----------------------------------------
    light = LightClient(builder.genesis.header, builder.pow)
    started = time.perf_counter()
    light.bootstrap(builder.headers()[1:])
    light_ms = (time.perf_counter() - started) * 1000
    print(f"Light client:      validated {len(light.headers)} headers "
          f"in {light_ms:.2f} ms, stores {light.storage_bytes():,} bytes")

    # --- 4. DCert superlight client -----------------------------------------
    # The client derives the expected enclave measurement from public
    # code + configuration, then needs only the latest header + cert.
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits,
    )
    superlight = SuperlightClient(measurement, ias.public_key)
    tip = issuer.certified[-1]
    started = time.perf_counter()
    adopted = superlight.validate_chain(tip.block.header, tip.certificate)
    superlight_ms = (time.perf_counter() - started) * 1000
    print(f"Superlight client: validated the whole chain "
          f"in {superlight_ms:.2f} ms, stores {superlight.storage_bytes():,} bytes")
    assert adopted

    ratio_storage = light.storage_bytes() / superlight.storage_bytes()
    print(f"\nStorage ratio (light / superlight): {ratio_storage:.1f}x "
          f"— and it grows linearly with chain length.")
    print("Superlight costs stay constant no matter how long the chain gets.")


if __name__ == "__main__":
    main()
