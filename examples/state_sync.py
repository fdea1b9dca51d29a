"""Certified state sync: become a full node without replaying history.

DCert's constant-cost validation enables more than superlight wallets:
a brand-new node can validate the latest certificate (O(1)), download
the state snapshot from *any untrusted peer*, check it against the
certified ``H_state``, and immediately operate as a full node — the
"snap sync" pattern, with trust anchored in the enclave certificate
instead of developer-hard-coded checkpoints.

Run with:  python examples/state_sync.py
"""

from __future__ import annotations

import copy
import time

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.node import FullNode
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    SuperlightClient,
    bootstrap_full_node,
    compute_expected_measurement,
    export_snapshot,
)
from repro.core.statesync import StateSnapshot
from repro.crypto import generate_keypair
from repro.errors import StateError
from repro.sgx.attestation import AttestationService


def main() -> None:
    user = generate_keypair(b"sync-user")
    builder = ChainBuilder(difficulty_bits=4, network="syncnet")
    nonce = 0
    print("Mining and certifying a 50-block chain...")
    genesis, state = make_genesis(network="syncnet")
    ias = AttestationService(seed=b"sync-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        ias=ias, key_seed=b"sync-enclave",
    )
    for height in range(1, 51):
        tx = sign_transaction(
            user.private, nonce, "kvstore", "put",
            (f"cell{height % 9}", f"value-{height}"),
        )
        nonce += 1
        block, _ = builder.add_block([tx])
        issuer.process_block(block)

    # --- The classical way: replay everything -------------------------------
    started = time.perf_counter()
    replay_genesis, replay_state = make_genesis(network="syncnet")
    replaying = FullNode(replay_genesis, replay_state, fresh_vm(), builder.pow)
    for block in builder.blocks[1:]:
        replaying.append_block(block)
    replay_s = time.perf_counter() - started
    print(f"Full replay sync:      {replay_s * 1000:.0f} ms "
          f"({builder.height} blocks re-executed)")

    # --- The DCert way: O(1) validation + verified snapshot ------------------
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits,
    )
    tip = issuer.certified[-1]
    snapshot = export_snapshot(issuer.node)  # served by an untrusted peer
    started = time.perf_counter()
    client = SuperlightClient(measurement, ias.public_key)
    node = bootstrap_full_node(
        client, tip.block, tip.certificate, snapshot,
        fresh_vm(), builder.pow,
    )
    sync_s = time.perf_counter() - started
    print(f"Certified state sync:  {sync_s * 1000:.0f} ms "
          f"({snapshot.size_bytes():,} snapshot bytes verified against H_state)")
    assert node.state.root == replaying.state.root

    # The synced node keeps up with the chain like any full node.
    next_tx = sign_transaction(user.private, nonce, "kvstore", "put", ("cell0", "post-sync"))
    scratch = copy.deepcopy(builder.state)
    block, _ = builder.miner.make_block(builder.tip.header, scratch, [next_tx])
    node.append_block(block)
    print(f"Synced node validated and committed block {node.height} normally.")

    # A peer serving a doctored snapshot is caught immediately.
    cells = list(snapshot.cells)
    key, value = cells[0]
    doctored = StateSnapshot(
        height=snapshot.height,
        cells=tuple([(key, value + b"!")] + cells[1:]),
        depth=snapshot.depth,
    )
    try:
        bootstrap_full_node(
            SuperlightClient(measurement, ias.public_key),
            tip.block, tip.certificate, doctored, fresh_vm(), builder.pow,
        )
        raise AssertionError("doctored snapshot accepted")
    except StateError:
        print("A doctored snapshot from a malicious peer is rejected.")


if __name__ == "__main__":
    main()
