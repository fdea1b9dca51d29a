"""The enclave's side of the one certificate check.

``DCertEnclaveProgram.cert_verify_t`` is ``verify_certificate`` with an
enclave-resident report memo, so the rules PR 13 set for the client
hold inside the enclave too: the memo key is the full attested tuple, a
report is admitted (and ``pk_enc`` pinned) only after the
``pk_enc == report_data`` binding passed, the memo is bounded, and it is
never part of sealed state.
"""

from dataclasses import replace

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.core import enclave_program
from repro.core.batch import BatchItem, IndexUpdate
from repro.core.certificate import CERT_SIG_DOMAIN, Certificate
from repro.core.digest import block_digest, index_digest
from repro.core.issuer import CertificateIssuer
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.core.updateproof import UpdateProof
from repro.crypto import ecdsa, generate_keypair, sign
from repro.errors import CertificateError
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.sgx.attestation import AttestationReport, AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm, make_kv_tx


@pytest.fixture()
def counts(monkeypatch):
    """Calls of ``AttestationReport.verify`` and ``ecdsa.verify_digest``."""
    calls = {"report": 0, "digest": 0}
    report_verify, verify_digest = AttestationReport.verify, ecdsa.verify_digest

    def counting_report_verify(self, expected_ias_key):
        calls["report"] += 1
        return report_verify(self, expected_ias_key)

    def counting_verify_digest(*args):
        calls["digest"] += 1
        return verify_digest(*args)

    monkeypatch.setattr(AttestationReport, "verify", counting_report_verify)
    monkeypatch.setattr(ecdsa, "verify_digest", counting_verify_digest)
    return calls


def specs():
    return [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")]


def launch_issuer(ias, **kwargs):
    genesis, state = make_genesis()
    return CertificateIssuer(
        genesis, state, fresh_vm(), ChainBuilder(difficulty_bits=4).pow,
        index_specs=specs(), ias=ias, **kwargs,
    )


@pytest.fixture()
def warm(certified_setup):
    """A second enclave of the fixture's program (same config, same
    measurement, own key) that has already admitted the fixture
    issuer's report; returns ``(program, tip)``."""
    issuer = launch_issuer(certified_setup["ias"], key_seed=b"memo-tests")
    assert issuer.measurement == certified_setup["issuer"].measurement
    program = issuer.enclave.program
    tip = certified_setup["issuer"].certified[-1]
    program.cert_verify_t(block_digest(tip.block.header), tip.certificate)
    assert len(program._verified_reports) == 1
    return program, tip


def forged_by(rogue, report, dig):
    return Certificate(
        pk_enc=rogue.public,
        report=report,
        dig=dig,
        sig=sign(rogue.private, dig, CERT_SIG_DOMAIN),
    )


# -- the memo key is the full attested tuple ----------------------------------


@pytest.mark.parametrize("field", ["measurement", "report_data", "ias_key"])
def test_a_tampered_report_with_a_replayed_signature_never_rides_the_memo(
    warm, counts, pinned_cache, field
):
    """With a signature-only memo key the ``report_data`` case would be a
    full forgery: the rogue key is "bound" to a report whose signature
    the enclave has already seen."""
    program, tip = warm
    rogue = generate_keypair(b"memo-rogue")
    tampered = {
        "measurement": bytes(32),
        "report_data": rogue.public.to_bytes(),
        "ias_key": AttestationService(seed=b"other-ias").public_key,
    }[field]
    report = replace(tip.certificate.report, **{field: tampered})
    dig = block_digest(tip.block.header)
    memo_before, pinned_before = list(program._verified_reports), list(pinned_cache)
    for forged in (
        forged_by(rogue, report, dig),
        replace(tip.certificate, report=report),
    ):
        counts["report"] = 0
        with pytest.raises(CertificateError):
            program.cert_verify_t(dig, forged)
        assert counts["report"] == 1  # verified from scratch, and failed
    assert list(program._verified_reports) == memo_before
    assert list(pinned_cache) == pinned_before


def test_the_genuine_report_rides_the_memo(warm, counts):
    program, tip = warm
    program.cert_verify_t(block_digest(tip.block.header), tip.certificate)
    assert counts == {"report": 0, "digest": 1}


# -- pin only after the binding check ------------------------------------------


def test_every_certificate_taking_ecall_rejects_a_mismatched_pk_enc(
    certified_setup, pinned_cache
):
    """A genuine report carried by a certificate under another key: every
    ecall that takes a certificate refuses it, whether or not the report
    is already in the memo, and the key never gets a table."""
    victim = certified_setup["issuer"]
    prev, tip = victim.certified[-2], victim.certified[-1]
    rogue = generate_keypair(b"memo-rogue")
    report = victim.report
    prev_header, header = prev.block.header, tip.block.header
    root = prev.index_roots["history"]
    forged_block = forged_by(rogue, report, block_digest(prev_header))
    forged_index = forged_by(rogue, report, index_digest(prev_header, root))
    forged_new = forged_by(rogue, report, block_digest(header))
    no_proof = UpdateProof(entries=())
    item = BatchItem(tip.block, no_proof, {})
    indexed_item = BatchItem(
        tip.block, no_proof,
        {"history": IndexUpdate(root, tip.index_roots["history"], None)},
    )
    calls = [
        ("sig_gen", (prev.block, forged_block, tip.block, no_proof)),
        ("sig_gen_lazy", (prev.block, forged_block, tip.block)),
        ("sig_gen_batch", (prev.block, forged_block, {}, (item,))),
        ("augmented_sig_gen", (prev.block, forged_index, root, tip.block,
                               tip.index_roots["history"], no_proof, None, "history")),
        ("index_sig_gen", (prev_header, root, forged_index, header,
                           tip.certificate, tip.index_roots["history"], None, "history")),
        ("index_sig_gen", (prev_header, root, prev.index_certificates["history"],
                           header, forged_new, tip.index_roots["history"], None,
                           "history")),
        ("sig_gen_batch", (prev.block, prev.certificate, {"history": forged_index},
                           (indexed_item,))),
    ]
    for memo_state in ("cold", "warm"):
        for name, arguments in calls:
            enclave = launch_issuer(
                certified_setup["ias"], key_seed=b"memo-tests"
            ).enclave
            if memo_state == "warm":
                enclave.program.cert_verify_t(block_digest(header), tip.certificate)
            pinned_before = set(pinned_cache)
            with pytest.raises(CertificateError, match="pk_enc does not match"):
                enclave.ecall(name, *arguments)
            assert rogue.public.point not in pinned_cache
            # The last two calls check a genuine certificate first, which
            # admits the genuine report and pins the genuine key.
            genuine_first = (name, arguments) in calls[-2:]
            if memo_state == "cold" and not genuine_first:
                assert len(enclave.program._verified_reports) == 0
                assert set(pinned_cache) == pinned_before
            else:
                assert len(enclave.program._verified_reports) == 1
                assert set(pinned_cache) - pinned_before <= {victim.pk_enc.point}


# -- bounded, enclave-resident, never sealed -----------------------------------


def test_the_memo_stays_within_its_bound_under_many_genuine_reports(
    certified_setup, pinned_cache
):
    ias = certified_setup["ias"]
    program = launch_issuer(ias, key_seed=b"memo-tests").enclave.program
    dig = bytes(32)
    for index in range(64):
        other = launch_issuer(ias, key_seed=b"memo-peer-%d" % index)
        certificate = Certificate(
            other.pk_enc, other.report, dig, other.enclave.program._sign(dig)
        )
        program.cert_verify_t(dig, certificate)
        assert len(program._verified_reports) <= enclave_program._VERIFIED_REPORTS_LIMIT
    # Least recently used goes first: the last one admitted is still there.
    assert next(reversed(program._verified_reports))[1] == other.pk_enc.to_bytes()


def four_tx_chain(user_keypair, blocks):
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for _ in range(blocks):
        txs = [
            make_kv_tx(user_keypair, nonce + i, f"k{(nonce + i) % 5}", f"v{nonce + i}")
            for i in range(4)
        ]
        nonce += 4
        builder.add_block(txs)
    return builder


def test_a_launched_enclave_starts_empty_and_verifies_its_first_certificate_in_full(
    user_keypair, counts
):
    chain = four_tx_chain(user_keypair, 2)
    issuer = launch_issuer(AttestationService(seed=b"memo-ias"), key_seed=b"memo-tests")
    program = issuer.enclave.program
    assert len(program._verified_reports) == 0
    # Block 1 anchors on genesis; the first certificate the enclave sees
    # is block 1's own, handed to the first index_sig_gen.
    issuer.process_block(chain.blocks[1])
    assert counts["report"] == 1 and len(program._verified_reports) == 1
    issuer.process_block(chain.blocks[2])
    assert counts["report"] == 1


def test_one_warm_block_costs_no_report_check_and_thirteen_signature_checks(
    user_keypair, counts
):
    """4 transactions x (full node + enclave replay) + 5 certificates
    (previous block; per index: previous index + new block).  Was 5
    report verifications and 18 signature checks."""
    chain = four_tx_chain(user_keypair, 4)
    issuer = launch_issuer(AttestationService(seed=b"memo-ias"), key_seed=b"memo-tests")
    for block in chain.blocks[1:4]:
        issuer.process_block(block)
    counts.update(report=0, digest=0)
    issuer.process_block(chain.blocks[4])
    assert counts == {"report": 0, "digest": 13}


def test_a_recovered_enclave_starts_empty_and_the_memo_is_not_in_the_checkpoint(
    user_keypair, counts, tmp_path
):
    chain = four_tx_chain(user_keypair, 5)
    ias = AttestationService(seed=b"memo-ias")
    platform = SGXPlatform(seed=b"memo-platform")
    genesis, state = make_genesis()
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / "ci.wal"), genesis, state, fresh_vm(), chain.pow,
        index_specs=specs(), platform=platform, ias=ias, key_seed=b"memo-tests",
    )
    for block in chain.blocks[1:4]:
        durable.process_block(block)
    assert len(durable.enclave.program._verified_reports) == 1
    durable.checkpoint()

    genesis, state = make_genesis()
    recovered = recover_issuer(
        durable.archive, genesis, state, fresh_vm(), chain.pow,
        index_specs=specs(), platform=platform, ias=ias,
    )
    assert recovered.last_recovery.checkpoint_used
    assert recovered.last_recovery.replayed_blocks == 0
    program = recovered.enclave.program
    assert len(program._verified_reports) == 0
    counts.update(report=0, digest=0)
    recovered.process_block(chain.blocks[4])
    assert counts["report"] == 1 and len(program._verified_reports) == 1
    counts.update(report=0, digest=0)
    recovered.process_block(chain.blocks[5])
    assert counts == {"report": 0, "digest": 13}
