"""The in-enclave program: Alg. 2's checks, one by one."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.core.certificate import Certificate
from repro.core.digest import block_digest
from repro.core.updateproof import UpdateProof
from repro.errors import CertificateError, EnclaveError, ProofError


@pytest.fixture()
def program(certified_setup):
    return certified_setup["issuer"].enclave.program


@pytest.fixture()
def last_two(certified_setup):
    issuer = certified_setup["issuer"]
    return issuer.certified[-2], issuer.certified[-1]


def rebuild_proof(certified_setup, block):
    """Recompute the update proof for an already-committed block by
    replaying the chain up to its parent on a throwaway node."""
    from repro.chain.genesis import make_genesis
    from repro.chain.node import FullNode
    from tests.conftest import fresh_vm

    genesis, state = make_genesis()
    node = FullNode(
        genesis, state, fresh_vm(), certified_setup["chain"].pow
    )
    for earlier in certified_setup["chain"].blocks[1:]:
        if earlier.header.height >= block.header.height:
            break
        node.append_block(earlier)
    return UpdateProof(entries=node.validate_block(block).pre_state)


def test_sig_gen_accepts_valid_successor(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    signature = program.sig_gen(
        prev_certified.block, prev_certified.certificate, tip_certified.block, proof
    )
    assert signature == tip_certified.certificate.sig  # RFC-6979 determinism


def test_sig_gen_rejects_missing_prev_certificate(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    with pytest.raises(CertificateError):
        program.sig_gen(prev_certified.block, None, tip_certified.block, proof)


def test_sig_gen_rejects_forged_prev_certificate(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    good = prev_certified.certificate
    forged = Certificate(good.pk_enc, good.report, b"\x00" * 32, good.sig)
    with pytest.raises(CertificateError):
        program.sig_gen(prev_certified.block, forged, tip_certified.block, proof)


def test_sig_gen_rejects_wrong_genesis(certified_setup, program):
    chain = certified_setup["chain"]
    first = chain.blocks[1]
    fake_genesis = Block(
        header=BlockHeader(0, b"\x01" * 32, 0, 0, bytes(32), bytes(32), 0),
        transactions=(),
    )
    proof = rebuild_proof(certified_setup, first)
    with pytest.raises(CertificateError):
        program.sig_gen(fake_genesis, None, first, proof)


def test_blk_verify_rejects_broken_linkage(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    header = tip_certified.block.header
    broken = Block(
        header=BlockHeader(
            header.height, b"\x00" * 32, header.nonce, header.difficulty_bits,
            header.state_root, header.tx_root, header.timestamp,
        ),
        transactions=tip_certified.block.transactions,
    )
    with pytest.raises(CertificateError):
        program.blk_verify_t(prev_certified.block, broken, proof)


def test_blk_verify_rejects_wrong_height(certified_setup, program):
    issuer = certified_setup["issuer"]
    two_back, tip = issuer.certified[-3], issuer.certified[-1]
    proof = rebuild_proof(certified_setup, tip.block)
    with pytest.raises(CertificateError):
        program.blk_verify_t(two_back.block, tip.block, proof)


def test_blk_verify_rejects_bad_pow(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    header = tip_certified.block.header
    candidates = (
        BlockHeader(header.height, header.prev_hash, nonce, header.difficulty_bits,
                    header.state_root, header.tx_root, header.timestamp)
        for nonce in range(100_000)
    )
    pow_engine = certified_setup["chain"].pow
    bad_header = next(c for c in candidates if not pow_engine.check(c))
    bad = Block(header=bad_header, transactions=tip_certified.block.transactions)
    with pytest.raises(CertificateError):
        program.blk_verify_t(prev_certified.block, bad, proof)


def test_blk_verify_rejects_tampered_tx_list(certified_setup, program, last_two):
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    tampered = Block(
        header=tip_certified.block.header,
        transactions=tip_certified.block.transactions[:-1],
    )
    with pytest.raises(CertificateError):
        program.blk_verify_t(prev_certified.block, tampered, proof)


def test_blk_verify_rejects_forged_read_values(certified_setup, program, last_two):
    """A CI that lies about pre-state values cannot build a proof."""
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    if not proof.entries:
        pytest.skip("block touched no state")
    key, value, smt_proof = proof.entries[0]
    forged_value = b"forged" if value != b"forged" else b"forged2"
    forged = UpdateProof(entries=((key, forged_value, smt_proof),) + proof.entries[1:])
    with pytest.raises(ProofError):
        program.blk_verify_t(prev_certified.block, tip_certified.block, forged)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: {"siblings": p.siblings[:-1]},  # parent commit: IndexError
        lambda p: {"default_mask": float(p.default_mask)},  # TypeError
        lambda p: {"default_mask": p.default_mask | 1 << 200},  # verified
        lambda p: {"depth": 300},  # ValueError: negative shift count
    ],
)
def test_sig_gen_fails_typed_on_a_malformed_state_proof(
    certified_setup, program, last_two, edit
):
    """A prover-chosen proof field of the wrong count, type or range
    leaves the ecall as ProofError, never as an untyped exception, and a
    second encoding of a valid proof is not accepted."""
    from dataclasses import replace

    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    key, value, smt_proof = next(e for e in proof.entries if e[2].siblings)
    bad = (key, value, replace(smt_proof, **edit(smt_proof)))
    malformed = UpdateProof(entries=(bad,) + tuple(e for e in proof.entries if e[0] != key))
    with pytest.raises(ProofError):
        program.sig_gen(
            prev_certified.block,
            prev_certified.certificate,
            tip_certified.block,
            malformed,
        )


def test_blk_verify_rejects_incomplete_proof(certified_setup, program, last_two):
    """Dropping one touched key from the update proof is caught when the
    replay reads or writes outside the proven slice."""
    prev_certified, tip_certified = last_two
    proof = rebuild_proof(certified_setup, tip_certified.block)
    if len(proof.entries) < 2:
        pytest.skip("block touched too little state")
    incomplete = UpdateProof(entries=proof.entries[1:])
    with pytest.raises(ProofError):
        program.blk_verify_t(prev_certified.block, tip_certified.block, incomplete)


def test_cert_verify_accepts_good_certificate(program, last_two):
    _, tip_certified = last_two
    program.cert_verify_t(
        block_digest(tip_certified.block.header), tip_certified.certificate
    )


def test_cert_verify_rejects_digest_mismatch(program, last_two):
    prev_certified, tip_certified = last_two
    with pytest.raises(CertificateError):
        program.cert_verify_t(
            block_digest(prev_certified.block.header), tip_certified.certificate
        )


def test_cert_verify_rejects_foreign_enclave_key(certified_setup, program, last_two):
    """A certificate signed by a different (even honest) enclave key
    whose report data does not match is rejected."""
    from repro.crypto import generate_keypair, sign
    from repro.core.certificate import CERT_SIG_DOMAIN

    _, tip_certified = last_two
    rogue = generate_keypair(b"rogue-key")
    dig = block_digest(tip_certified.block.header)
    forged = Certificate(
        pk_enc=rogue.public,
        report=tip_certified.certificate.report,
        dig=dig,
        sig=sign(rogue.private, dig, CERT_SIG_DOMAIN),
    )
    with pytest.raises(CertificateError):
        program.cert_verify_t(dig, forged)


def test_index_sig_gen_requires_cached_write_set(certified_setup, program):
    """Hierarchical index certification for a block this enclave never
    replayed must fail loudly."""
    issuer = certified_setup["issuer"]
    tip = issuer.certified[-1]
    prev = issuer.certified[-2]
    program._recent.clear()
    try:
        with pytest.raises(EnclaveError):
            program.index_sig_gen(
                prev.block.header,
                prev.index_roots["history"],
                prev.index_certificates["history"],
                tip.block.header,
                tip.certificate,
                tip.index_roots["history"],
                None,
                "history",
            )
    finally:
        pass  # cache stays empty; later tests do not rely on it


def test_unknown_index_spec_rejected(program, last_two):
    _, tip_certified = last_two
    with pytest.raises(EnclaveError):
        program.index_sig_gen(
            tip_certified.block.header, b"", None,
            tip_certified.block.header, tip_certified.certificate,
            b"", None, "no-such-index",
        )
