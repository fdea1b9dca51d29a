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
    touched = node.validate_block(block).touched_keys()
    return UpdateProof(entries=tuple(node.state.prove_many(touched)))


def test_the_trusted_surface_is_three_certification_ecalls(certified_setup, last_two):
    """Every exported ecall is surface whose caller is the adversary:
    Alg. 2, Alg. 4, Alg. 5 and the three sealing calls, nothing else.
    The batch and lazy extensions were measured and removed (PR 21)."""
    from repro.core.enclave_program import DCertEnclaveProgram

    assert set(DCertEnclaveProgram.ECALLS) == {
        "sig_gen", "augmented_sig_gen", "index_sig_gen",
        "seal_signing_key", "seal_checkpoint", "unseal_checkpoint",
    }
    assert len(DCertEnclaveProgram.ECALLS) == 6
    enclave = certified_setup["issuer"].enclave
    prev, tip = last_two
    for removed in ("sig_gen_batch", "sig_gen_lazy"):
        assert not hasattr(enclave.program, removed)
        with pytest.raises(EnclaveError, match="undefined ecall"):
            enclave.ecall(removed, prev.block, prev.certificate, tip.block)


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


# -- malformed upper-level (MPT) proofs at the two index-certifying ecalls ------
#
# An index update proof is host-supplied.  Its upper-level openings are
# read by one validated open (merkle/mpt.py); before PR 20 four separate
# walks read them and disagreed on a list-typed nibble path.


@pytest.fixture(scope="module")
def pending(kv_chain):
    """An issuer with both index kinds, one block behind ``kv_chain``,
    and everything the index-certifying ecalls take for that block — the
    honest update proofs come from copies of the maintained indexes, so
    nothing here commits the block."""
    import copy
    from types import SimpleNamespace

    from repro.chain.genesis import make_genesis
    from repro.core.issuer import CertificateIssuer
    from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
    from repro.sgx.attestation import AttestationService
    from repro.sgx.costs import cost_model_disabled
    from tests.conftest import fresh_vm

    with cost_model_disabled():
        genesis, state = make_genesis()
        issuer = CertificateIssuer(
            genesis, state, fresh_vm(), kv_chain.pow,
            index_specs=[AccountHistoryIndexSpec(name="history"),
                         KeywordIndexSpec(name="keyword")],
            ias=AttestationService(seed=b"pending-ias"), key_seed=b"pending-enclave",
        )
        *earlier, block = kv_chain.blocks[1:]
        for earlier_block in earlier:
            issuer.process_block(earlier_block, schemes=("hierarchical", "augmented"))
        result, update_proof = issuer.preprocess(block)
        # sig_gen: the enclave now holds this block's write set.
        certificate, _, write_set = issuer.gen_cert(
            block, precomputed=(result, update_proof)
        )
    indexes = {name: copy.deepcopy(index) for name, index in issuer.indexes.items()}
    updates = {}
    for name, index in indexes.items():
        prev_root = index.root
        _writes, proof = index.ingest_block(block, write_set)
        updates[name] = SimpleNamespace(
            prev_root=prev_root, new_root=index.root, proof=proof
        )
    return SimpleNamespace(
        issuer=issuer, program=issuer.enclave.program, prev=issuer.node.tip,
        block=block, update_proof=update_proof, certificate=certificate,
        write_set=write_set, updates=updates,
    )


ECALLS = ("index_sig_gen", "augmented_sig_gen")


def certify_index(pending, ecall, name, proof, new_root):
    """Ask the enclave to certify ``name``'s update of the pending block
    with ``proof`` and the claimed ``new_root``."""
    p, prev_root = pending, pending.updates[name].prev_root
    if ecall == "index_sig_gen":
        return p.program.index_sig_gen(
            p.prev.header, prev_root, p.issuer._index_certs[name],
            p.block.header, p.certificate, new_root, proof, name,
        )
    return p.program.augmented_sig_gen(
        p.prev, p.issuer._aug_certs[name], prev_root, p.block, new_root,
        p.update_proof, proof, name,
    )


def enclave_memory(program):
    return list(program._recent)


def _malformed_upper_proofs(honest):
    """``label -> proof`` for one honest upper proof that runs branch,
    extension, branch, leaf; what the parent commit did with each (in
    ``mpt.apply_update`` / ``verify_mpt``) is the comment."""
    from dataclasses import replace

    from repro.merkle.mpt import DivergedExtensionStep, ExtensionStep, MPTProof
    from tests.merkle.test_mpt_engine import _below, says_absent

    through = next(
        i for i, step in enumerate(honest.steps) if isinstance(step, ExtensionStep)
    )
    top = honest.steps[0]

    def with_top(**edit):
        return replace(honest, steps=(replace(top, **edit),) + honest.steps[1:])

    return {
        # verified for "absent": a list equals no tuple, hashes the same
        "list-path-leaf": says_absent(honest),
        # verified for "absent", then IndexError splitting the extension
        "list-path-diverged-extension": MPTProof(
            honest.key,
            honest.steps[:through] + (DivergedExtensionStep(
                list(honest.steps[through].path), _below(honest, through)),),
            None,
        ),
        # ProofError already (the digest moves); still typed
        "31-byte-sibling": with_top(
            sibling_digests=(top.sibling_digests[0][:31],) + top.sibling_digests[1:]
        ),
        "float-taken": with_top(taken=float(top.taken)),  # TypeError
        "step-is-none": replace(honest, steps=(None,) + honest.steps[1:]),  # AttributeError
    }


MALFORMED = (
    "list-path-leaf", "list-path-diverged-extension", "31-byte-sibling",
    "float-taken", "step-is-none",
)


def test_index_ecalls_accept_the_honest_update(pending):
    from repro.crypto import Signature

    for name, update in pending.updates.items():
        honest = (name, update.proof, update.new_root)
        assert isinstance(certify_index(pending, "index_sig_gen", *honest), Signature)
        assert isinstance(certify_index(pending, "augmented_sig_gen", *honest), Signature)


@pytest.mark.parametrize("label", MALFORMED)
@pytest.mark.parametrize("ecall", ECALLS)
def test_index_ecalls_fail_typed_on_a_malformed_upper_proof(pending, ecall, label):
    """ProofError, no signature, and the enclave's memory is what any
    failed call leaves (here: the same call with a wrong claimed root)."""
    from dataclasses import replace

    from repro.merkle.mbtree import MerkleBTree

    honest, new_root = pending.updates["keyword"].proof, pending.updates["keyword"].new_root
    keyword, lower, upper = honest.steps[0]
    assert len(pending.issuer.indexes["keyword"]._postings[keyword]) >= 3
    table = _malformed_upper_proofs(upper)
    assert set(table) == set(MALFORMED)
    bad = table[label]
    if label.startswith("list-path"):  # "no such keyword": pair it with an empty tree
        lower = MerkleBTree(fanout=lower.fanout).prove_insert(lower.key)
    malformed = replace(honest, steps=((keyword, lower, bad),) + honest.steps[1:])

    with pytest.raises(CertificateError):
        certify_index(pending, ecall, "keyword", honest, bytes(32))
    after_a_failed_call = enclave_memory(pending.program)
    with pytest.raises(ProofError):
        certify_index(pending, ecall, "keyword", malformed, new_root)
    assert enclave_memory(pending.program) == after_a_failed_call


#: What the *parent's* ``apply_writes`` returned for the forged history
#: update below — and so what its enclave signed.  Recorded at a5519c6 by
#: copying this file, tests/merkle/test_mpt_engine.py and
#: test_mpt_golden.py into a clone of it and running
#:     PYTHONPATH=src python -m pytest tests/core/test_enclave_program.py -k erase
#: which fails there with "apply_writes returned <this value>" (and, with
#: the value filled in, with "DID NOT RAISE" at each of the three ecalls).
PARENT_RETURNED_FOR_ERASED_HISTORY = (
    "3fc2d51319e739e2240f0f7579c76ea826ff19de327bb3c13bddf6a17af7c5c5"
)


@pytest.mark.parametrize("ecall", ECALLS)
def test_a_forged_absence_cannot_erase_an_accounts_history(pending, ecall):
    """The Motivation's forgery, end to end.  For the block's last
    history write the host retells the upper proof of an account *with*
    versions as "absent" (its leaf path as a list) and pairs it with an
    insert proof against an empty lower tree.  The parent's
    ``apply_writes`` read the claim before verifying it and returned a
    root in which the account's earlier versions are gone; given that
    root as the claimed new one, each ecall signed it."""
    from dataclasses import replace

    from repro.merkle.mbtree import MerkleBTree
    from tests.merkle.test_mpt_engine import says_absent

    update = pending.updates["history"]
    index = pending.issuer.indexes["history"]
    writes = index.spec.write_data(pending.block, pending.write_set)
    assert len(index._lower[writes[-1].account]) >= 3
    _lower, upper = update.proof.steps[-1]
    forged = replace(update.proof, steps=update.proof.steps[:-1] + ((
        MerkleBTree(fanout=index.spec.fanout).prove_insert(writes[-1].timestamp),
        says_absent(upper),
    ),))

    with pytest.raises(ProofError):
        returned = index.spec.apply_writes(update.prev_root, writes, forged)
        pytest.fail(f"apply_writes returned {returned.hex()}")
    assert update.new_root.hex() != PARENT_RETURNED_FOR_ERASED_HISTORY
    with pytest.raises(ProofError):
        certify_index(
            pending, ecall, "history", forged,
            bytes.fromhex(PARENT_RETURNED_FOR_ERASED_HISTORY),
        )
