"""Failure injection: every party misbehaves, every check fires.

Each test corrupts one link of the trust chain — the miner, the CI's
outside-enclave program, the proofs, the SP — and asserts the failure
is contained exactly where the design says it should be.
"""

import pytest
from dataclasses import replace

from repro.chain.block import Block
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction, sign_transaction
from repro.core.issuer import CertificateIssuer
from repro.core.updateproof import UpdateProof
from repro.crypto import generate_keypair
from repro.errors import (
    BlockValidationError,
    CertificateError,
    ProofError,
)
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm


@pytest.fixture()
def world():
    keypair = generate_keypair(b"inject-tests")
    builder = ChainBuilder(difficulty_bits=4, network="inject")
    nonce = [0]

    def next_tx(key="k", value="v"):
        tx = sign_transaction(
            keypair.private, nonce[0], "kvstore", "put", (key, value)
        )
        nonce[0] += 1
        return tx

    for _ in range(3):
        builder.add_block([next_tx()])
    genesis, state = make_genesis(network="inject")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        ias=AttestationService(seed=b"inject-ias"), key_seed=b"inject-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)
    return {"builder": builder, "issuer": issuer, "next_tx": next_tx, "keypair": keypair}


def mine_block(world, transactions):
    block, _ = world["builder"].add_block(transactions)
    return block


def test_equivocating_miner_rejected_at_ci(world):
    """A miner publishing a block with a self-serving state root (double
    crediting itself) is stopped by the enclave's replay: the root its
    proven slice reaches is not the header's (Alg. 2 lines 22-23)."""
    block = mine_block(world, [world["next_tx"]("honest", "1")])
    forged_header = world["builder"].pow.solve(
        replace(block.header, state_root=bytes(32), nonce=0)
    )
    ecalls = world["issuer"].enclave.ledger.ecalls
    with pytest.raises(CertificateError, match="state root mismatch after replay"):
        world["issuer"].gen_cert(Block(forged_header, block.transactions))
    assert world["issuer"].enclave.ledger.ecalls == ecalls + 1
    # The honest block still certifies fine afterwards.
    world["issuer"].process_block(block)


def test_replayed_transaction_changes_tx_root(world):
    """A miner duplicating a user transaction produces a different tx
    root, so the original header no longer covers the block."""
    tx = world["next_tx"]("dup", "1")
    block = mine_block(world, [tx])
    duplicated = Block(block.header, block.transactions + (tx,))
    assert not duplicated.check_tx_root()
    with pytest.raises(BlockValidationError):
        world["issuer"].gen_cert(duplicated)
    world["issuer"].process_block(block)


def test_ci_feeding_stale_proofs_is_caught_in_enclave(world):
    """The CI's untrusted half hands the enclave an update proof built
    against the wrong (older) state root."""
    issuer = world["issuer"]
    block_n1 = mine_block(world, [world["next_tx"]("k", "n1")])
    issuer.process_block(block_n1)
    block_n2 = mine_block(world, [world["next_tx"]("k", "n2")])
    result, _ = issuer.preprocess(block_n2)
    # Build the proof against the *post*-block state: stale/mismatched.
    wrong_state_proof = UpdateProof(
        entries=tuple(
            (key, b"bogus", proof)
            for key, _, proof in issuer.node.state.prove_many(result.touched_keys())
        )
    )
    with pytest.raises(ProofError):
        issuer.enclave.ecall(
            "sig_gen", issuer.node.tip, issuer.latest_certificate,
            block_n2, wrong_state_proof,
        )
    issuer.process_block(block_n2)


def test_unsigned_transaction_in_block_rejected(world):
    """A block smuggling an unsigned transaction under the honest block's
    state root reaches the enclave — the CI host checks neither the
    signature nor the root — and is refused at Alg. 2 line 19, the
    replay's verify(tx), before the root comparison is reached."""
    issuer = world["issuer"]
    keypair = world["keypair"]
    unsigned = Transaction(
        sender=keypair.public, nonce=12345, contract="kvstore",
        method="put", args=("x", "y"),
    )
    good = world["next_tx"]()
    block = mine_block(world, [good])
    smuggled_header = world["builder"].pow.solve(
        replace(
            block.header,
            tx_root=Block(block.header, (good, unsigned)).compute_tx_root(),
            nonce=0,
        )
    )
    smuggled = Block(header=smuggled_header, transactions=(good, unsigned))
    ecalls = issuer.enclave.ledger.ecalls
    with pytest.raises(BlockValidationError, match="invalid signature"):
        issuer.gen_cert(smuggled)
    assert issuer.enclave.ledger.ecalls == ecalls + 1
    issuer.process_block(block)


def test_unsigned_transaction_with_committed_effects_fails_alg_2_line_19(world):
    """Mined without signature checks, the header commits to the unsigned
    write: the host's re-execution agrees with it, and the enclave's
    verify(tx) — the only signature check a CI makes — refuses it."""
    issuer = world["issuer"]
    unsigned = Transaction(
        sender=world["keypair"].public, nonce=12345, contract="kvstore",
        method="put", args=("x", "y"),
    )
    fork = ChainBuilder(difficulty_bits=4, network="inject")
    for block in world["builder"].blocks[1:]:
        fork.add_block(list(block.transactions))
    smuggled, _ = fork.add_block(
        [world["next_tx"](), unsigned], verify_signatures=False
    )
    assert unsigned in smuggled.transactions
    ecalls, height = issuer.enclave.ledger.ecalls, issuer.node.height
    with pytest.raises(BlockValidationError, match="invalid signature"):
        issuer.gen_cert(smuggled)
    assert issuer.enclave.ledger.ecalls == ecalls + 1
    with pytest.raises(BlockValidationError, match="invalid signature"):
        issuer.process_block(smuggled)
    assert issuer.enclave.ledger.ecalls == ecalls + 2
    assert issuer.node.height == height


def test_enclave_restart_loses_key_but_new_certs_still_verify(world):
    """A restarted CI gets a fresh enclave key; clients re-check one new
    attestation report and continue (§4.3)."""
    from repro.core.superlight import SuperlightClient

    issuer = world["issuer"]
    client = SuperlightClient(issuer.measurement, issuer.ias.public_key)
    tip = issuer.certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)

    # Second CI: same program (same measurement), different key seed.
    genesis, state = make_genesis(network="inject")
    second = CertificateIssuer(
        genesis, state, fresh_vm(), world["builder"].pow,
        ias=issuer.ias, key_seed=b"inject-enclave-2",
    )
    for block in world["builder"].blocks[1:]:
        second.process_block(block)
    assert second.measurement == issuer.measurement
    assert second.pk_enc != issuer.pk_enc
    new_tip = second.certified[-1]
    # Same height: only the hash tie-break decides; no exception either way.
    client.validate_chain(new_tip.block.header, new_tip.certificate)
    assert len(client._verified_reports) == 2


def test_mixed_honest_and_corrupt_certificate_stream(world):
    """A client fed interleaved honest/corrupt certificates ends up on
    the honest tip with every corrupt one rejected."""
    from repro.core.superlight import SuperlightClient

    issuer = world["issuer"]
    client = SuperlightClient(issuer.measurement, issuer.ias.public_key)
    rejected = 0
    for certified in issuer.certified:
        client.validate_chain(certified.block.header, certified.certificate)
        corrupt = replace(certified.certificate, dig=bytes(32))
        try:
            client.validate_chain(certified.block.header, corrupt)
        except CertificateError:
            rejected += 1
    assert rejected == len(issuer.certified)
    assert client.latest_header.height == issuer.node.height
