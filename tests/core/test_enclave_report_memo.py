"""The enclave's side of the one certificate check.

``DCertEnclaveProgram.cert_verify_t`` is ``verify_certificate`` with an
enclave-resident memo, so the rules PR 13 set for the client hold inside
the enclave too: the report key is the full attested tuple, a report is
admitted (and ``pk_enc`` pinned) only after the ``pk_enc == report_data``
binding passed, the memo is bounded, and it is never part of sealed
state.  The same memo remembers certificate signatures that verified —
keyed on ``(pk_enc, dig, sig)`` — and the ones this enclave has just
produced, so the hierarchical path re-checks none of its own.
"""

from dataclasses import replace

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.core import enclave_program
from repro.core.certificate import CERT_SIG_DOMAIN, Certificate, VerifiedMemo
from repro.core.digest import block_digest, index_digest
from repro.core.issuer import CertificateIssuer
from repro.core.recovery import DurableIssuer, IssuerCheckpoint, recover_issuer
from repro.core.superlight import SuperlightClient
from repro.core.updateproof import UpdateProof
from repro.crypto import Signature, ecdsa, generate_keypair, sign
from repro.errors import CertificateError
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.sgx.attestation import AttestationReport, AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm, make_kv_tx


class _Calls(dict):
    """The two counters, and the key of every ``verify_digest`` call."""

    def __init__(self):
        super().__init__(report=0, digest=0)
        self.keys_verified = []


@pytest.fixture()
def counts(monkeypatch):
    """Calls of ``AttestationReport.verify`` and ``ecdsa.verify_digest``."""
    calls = _Calls()
    report_verify, verify_digest = AttestationReport.verify, ecdsa.verify_digest

    def counting_report_verify(self, expected_ias_key):
        calls["report"] += 1
        return report_verify(self, expected_ias_key)

    def counting_verify_digest(*args):
        calls["digest"] += 1
        calls.keys_verified.append(args[0])
        return verify_digest(*args)

    monkeypatch.setattr(AttestationReport, "verify", counting_report_verify)
    monkeypatch.setattr(ecdsa, "verify_digest", counting_verify_digest)
    return calls


def specs():
    return [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")]


def launch_issuer(ias, index_specs=None, **kwargs):
    genesis, state = make_genesis()
    return CertificateIssuer(
        genesis, state, fresh_vm(), ChainBuilder(difficulty_bits=4).pow,
        index_specs=index_specs or specs(), ias=ias, **kwargs,
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


def test_the_genuine_report_rides_the_memo(warm, counts, certified_setup):
    program, _tip = warm
    other = certified_setup["issuer"].certified[-2]  # same enclave, new signature
    program.cert_verify_t(block_digest(other.block.header), other.certificate)
    assert counts == {"report": 0, "digest": 1}


def test_a_certificate_met_again_costs_two_lookups(warm, counts):
    program, tip = warm
    program.cert_verify_t(block_digest(tip.block.header), tip.certificate)
    assert counts == {"report": 0, "digest": 0}
    # The comparisons the memo does not cover still run.
    with pytest.raises(CertificateError, match="digest does not match"):
        program.cert_verify_t(bytes(32), tip.certificate)
    assert counts == {"report": 0, "digest": 0}


# -- the signature key is every input of the skipped check ---------------------


def flip(value: bytes, bit: int = 0) -> bytes:
    return value[:-1] + bytes([value[-1] ^ (1 << bit)])


def tampered_in_one_field(certificate, peer):
    """``certificate`` changed in one field at a time, with the error the
    full check raises for it (the same as before the memo existed)."""
    sig = certificate.sig
    peer_cert = peer.certified[-1].certificate
    return {
        "dig": (replace(certificate, dig=flip(certificate.dig)),
                "certificate signature invalid"),
        "sig.r": (replace(certificate, sig=Signature(sig.r ^ 1, sig.s)),
                  "certificate signature invalid"),
        "sig.s": (replace(certificate, sig=Signature(sig.r, sig.s ^ 1)),
                  "certificate signature invalid"),
        # Another enclave of the same program, under its own genuine report.
        "pk_enc": (replace(certificate, pk_enc=peer_cert.pk_enc, report=peer_cert.report),
                   "certificate signature invalid"),
        "report": (replace(certificate, report=replace(certificate.report,
                                                       measurement=bytes(32))),
                   "attestation report not signed by the IAS"),
    }


@pytest.fixture(scope="module")
def peer(user_keypair):
    """Another CI running the same program under its own key."""
    chain = four_tx_chain(user_keypair, 1)
    issuer = launch_issuer(AttestationService(seed=b"test-ias"), key_seed=b"memo-peer")
    issuer.process_block(chain.blocks[1])
    return issuer


FIELDS = ["dig", "sig.r", "sig.s", "pk_enc", "report"]


@pytest.mark.parametrize("field", FIELDS)
def test_one_changed_field_misses_the_memo_in_every_ecall(
    certified_setup, peer, counts, pinned_cache, field
):
    """Each certificate-taking ecall, handed a certificate that differs
    from one it has memoised in a single field, verifies it from scratch
    and refuses it; a refused signature is never admitted."""
    victim = certified_setup["issuer"]
    assert peer.measurement == victim.measurement
    prev, tip = victim.certified[-2], victim.certified[-1]
    prev_header, header = prev.block.header, tip.block.header
    root, new_root = prev.index_roots["history"], tip.index_roots["history"]
    prev_index = prev.index_certificates["history"]
    no_proof = UpdateProof(entries=())

    def forge(certificate):
        return tampered_in_one_field(certificate, peer)[field]

    (bad_prev, message), (bad_index, _), (bad_tip, _) = (
        forge(prev.certificate), forge(prev_index), forge(tip.certificate)
    )
    calls = [
        ("sig_gen", (prev.block, bad_prev, tip.block, no_proof)),
        ("augmented_sig_gen", (prev.block, bad_index, root, tip.block, new_root,
                               no_proof, None, "history")),
        ("index_sig_gen", (prev_header, root, bad_index, header, tip.certificate,
                           new_root, None, "history")),
        ("index_sig_gen", (prev_header, root, prev_index, header, bad_tip,
                           new_root, None, "history")),
    ]
    enclave = launch_issuer(certified_setup["ias"], key_seed=b"memo-tests").enclave
    program = enclave.program
    for genuine, dig in (
        (prev.certificate, block_digest(prev_header)),
        (prev_index, index_digest(prev_header, root)),
        (tip.certificate, block_digest(header)),
    ):
        program.cert_verify_t(dig, genuine)
    memo_before = set(program._verified_reports.signatures)
    assert len(memo_before) == 3
    for name, arguments in calls:
        counts.update(report=0, digest=0)
        with pytest.raises(CertificateError, match=message):
            enclave.ecall(name, *arguments)
        if field == "report":
            assert counts == {"report": 1, "digest": 1}  # the IAS signature
        else:
            # The peer's genuine report is checked once, then memoised.
            assert counts["report"] == (field == "pk_enc" and name == "sig_gen")
            assert counts["digest"] == 1 + counts["report"]
        assert set(program._verified_reports.signatures) == memo_before


@pytest.mark.parametrize("field", FIELDS)
def test_one_changed_field_misses_the_memo_in_adopt(
    certified_setup, peer, counts, pinned_cache, field
):
    issuer = certified_setup["issuer"]
    tip = issuer.certified[-1].tip
    client = SuperlightClient(issuer.measurement, certified_setup["ias"].public_key)
    assert client.adopt(tip)
    assert len(client._verified_reports.signatures) == 1 + len(tip.index_certificates)
    state, wallet = client.state, client.to_json()
    memo_before = set(client._verified_reports.signatures)
    for forged_bundle in (
        replace(tip, certificate=tampered_in_one_field(tip.certificate, peer)[field][0]),
        replace(tip, index_certificates={
            **tip.index_certificates,
            "keyword": tampered_in_one_field(
                tip.index_certificates["keyword"], peer)[field][0],
        }),
    ):
        counts.update(report=0, digest=0)
        message = tampered_in_one_field(tip.certificate, peer)[field][1]
        with pytest.raises(CertificateError, match=message):
            client.adopt(forged_bundle)
        assert counts["digest"] >= 1  # the forged certificate was really checked
        assert client.state is state and client.to_json() == wallet
        assert set(client._verified_reports.signatures) == memo_before
    counts.update(report=0, digest=0)
    assert not client.adopt(tip)  # the genuine bundle, again: three lookups
    assert counts == {"report": 0, "digest": 0} and client.state is state


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
    calls = [
        ("sig_gen", (prev.block, forged_block, tip.block, no_proof)),
        ("augmented_sig_gen", (prev.block, forged_index, root, tip.block,
                               tip.index_roots["history"], no_proof, None, "history")),
        ("index_sig_gen", (prev_header, root, forged_index, header,
                           tip.certificate, tip.index_roots["history"], None, "history")),
        ("index_sig_gen", (prev_header, root, prev.index_certificates["history"],
                           header, forged_new, tip.index_roots["history"], None,
                           "history")),
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
            # The last call checks a genuine certificate first, which
            # admits the genuine report and pins the genuine key.
            genuine_first = (name, arguments) == calls[-1]
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
        assert len(program._verified_reports.signatures) <= VerifiedMemo.SIGNATURES_LIMIT
    # Least recently used goes first: the last one admitted is still there.
    assert next(reversed(program._verified_reports))[1] == other.pk_enc.to_bytes()
    assert len(program._verified_reports.signatures) == VerifiedMemo.SIGNATURES_LIMIT
    assert next(reversed(program._verified_reports.signatures)) == (
        other.pk_enc.to_bytes(), dig, certificate.sig.to_bytes()
    )


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
    assert len(program._verified_reports.signatures) == 0
    counts.update(report=0, digest=0)  # launching verified the quote
    # Block 1 anchors on genesis; the first certificate the enclave sees
    # is block 1's own, handed to the first index_sig_gen: its report is
    # new to the enclave, its signature the enclave made a moment ago.
    issuer.process_block(chain.blocks[1])
    assert counts["report"] == 1 and len(program._verified_reports) == 1
    assert counts["digest"] == 4 + 1  # transactions + the IAS signature
    issuer.process_block(chain.blocks[2])
    assert counts["report"] == 1


def test_the_first_certificate_of_another_enclave_is_verified_in_full(
    certified_setup, counts
):
    issuer = launch_issuer(certified_setup["ias"], key_seed=b"memo-tests")
    tip = certified_setup["issuer"].certified[-1]
    counts.update(report=0, digest=0)  # launching verified the quote
    issuer.enclave.program.cert_verify_t(block_digest(tip.block.header), tip.certificate)
    # One report check (an ECDSA verification itself) and one signature check.
    assert counts == {"report": 1, "digest": 2}


def test_one_warm_block_costs_no_report_and_four_signature_checks(
    user_keypair, counts
):
    """4 transactions x the enclave replay (Alg. 2 line 19); the CI host
    checks none.  The 5 certificates the enclave is handed (previous
    block; per index: previous index + new block) it signed itself one
    step earlier.  Was 8 while the host checked them too (before PR 24),
    13 with the certificates, and 5 report verifications + 18 signature
    checks before PR 16."""
    chain = four_tx_chain(user_keypair, 4)
    issuer = launch_issuer(AttestationService(seed=b"memo-ias"), key_seed=b"memo-tests")
    for block in chain.blocks[1:4]:
        issuer.process_block(block)
    counts.update(report=0, digest=0)
    counts.keys_verified.clear()
    issuer.process_block(chain.blocks[4])
    assert counts == {"report": 0, "digest": 4}
    assert set(counts.keys_verified) == {user_keypair.public.point}


def seven_specs():
    seven = [AccountHistoryIndexSpec(name=f"history-{n}") for n in range(4)]
    return seven + [KeywordIndexSpec(name=f"keyword-{n}") for n in range(3)]


def test_seven_indexes_still_cost_no_certificate_signature_check(user_keypair, counts):
    """The live window is about (indexes + 2) signatures; the bound is
    a constant that covers more indexes than any workload here has."""
    chain = four_tx_chain(user_keypair, 4)
    issuer = launch_issuer(
        AttestationService(seed=b"memo-ias"), index_specs=seven_specs(),
        key_seed=b"memo-tests",
    )
    for block in chain.blocks[1:4]:
        issuer.process_block(block)
    counts.update(report=0, digest=0)
    issuer.process_block(chain.blocks[4])
    assert counts == {"report": 0, "digest": 4}
    assert len(issuer.enclave.program._verified_reports.signatures) <= 16


@pytest.mark.parametrize(
    "schemes, index_specs, host, enclave",
    [
        (("hierarchical",), specs, 0, 4),
        (("hierarchical",), seven_specs, 0, 4),
        (("augmented",), lambda: specs()[:1], 4, 4),
    ],
    ids=["hierarchical-2", "hierarchical-7", "augmented-only"],
)
def test_transaction_signatures_are_checked_once_and_inside(
    user_keypair, counts, ecalls_in_flight, monkeypatch, schemes, index_specs, host,
    enclave,
):
    """The gate that fails if the duplicate check returns: per certified
    block, which side of the boundary verified how many signatures."""
    chain = four_tx_chain(user_keypair, 3)
    issuer = launch_issuer(
        AttestationService(seed=b"memo-ias"), index_specs=index_specs(),
        key_seed=b"memo-tests",
    )
    inside = []  # one bool per verify_digest call: was an ecall in flight?
    counted = ecdsa.verify_digest
    monkeypatch.setattr(
        ecdsa,
        "verify_digest",
        lambda *args: inside.append(bool(ecalls_in_flight)) or counted(*args),
    )
    for block in chain.blocks[1:3]:
        issuer.process_block(block, schemes=schemes)
    counts.keys_verified.clear()
    inside.clear()
    issuer.process_block(chain.blocks[3], schemes=schemes)
    assert len(chain.blocks[3].transactions) == 4
    assert set(counts.keys_verified) == {user_keypair.public.point}
    assert sum(inside) == enclave, "Alg. 2 line 19: once per certified block"
    assert len(inside) - sum(inside) == host, (
        "the CI host verifies a block's signatures only where no ecall "
        "running blk_verify_t stands before its first mutation: under "
        "augmented-only with indexes, ingest_block advances them before "
        "augmented_sig_gen — and nowhere else"
    )


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
    memo = durable.enclave.program._verified_reports
    assert len(memo) == 1 and len(memo.signatures) > 0
    # Neither what is checkpointed nor what is sealed depends on the memo.
    captured = IssuerCheckpoint.capture(durable.issuer)
    sealed_key = durable.enclave.ecall("seal_signing_key")
    kept = list(memo.signatures)
    memo.signatures.clear()
    assert IssuerCheckpoint.capture(durable.issuer) == captured
    assert durable.enclave.ecall("seal_signing_key") == sealed_key
    memo.signatures.update(dict.fromkeys(kept))
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
    assert len(program._verified_reports.signatures) == 0
    counts.update(report=0, digest=0)
    recovered.process_block(chain.blocks[4])
    assert counts["report"] == 1 and len(program._verified_reports) == 1
    # Transactions, the IAS signature, and the three certificates the
    # enclave's previous life signed: block 3's and its two index ones.
    assert counts["digest"] == 4 + 1 + 3
    counts.update(report=0, digest=0)
    recovered.process_block(chain.blocks[5])
    assert counts == {"report": 0, "digest": 4}
