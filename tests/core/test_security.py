"""Adversarial tests for Definitions 1 and 2 (§6 of the paper).

Definition 1 (block certificate security): no polynomial adversary can
produce a valid certificate for an invalid block or one violating chain
selection.  Definition 2 (verifiable query security): no adversary can
produce a valid proof + certificate for a tampered/incomplete result.

Each test plays a concrete adversary — a malicious CI forging
certificates, a malicious SP forging answers — and asserts the honest
verifier rejects.
"""

import pytest
from dataclasses import replace

from repro.core.certificate import CERT_SIG_DOMAIN, Certificate
from repro.core.digest import block_digest
from repro.core.superlight import SuperlightClient
from repro.crypto import generate_keypair, sign
from repro.query.api import HistoryQuery, KeywordQuery, QueryAnswer
from repro.errors import CertificateError
from repro.sgx.attestation import AttestationService, sign_quote
from repro.sgx.platform import SGXPlatform


@pytest.fixture()
def client(certified_setup):
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    tip = certified_setup["issuer"].certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    for name in ("history", "keyword"):
        client.validate_index_certificate(
            name, tip.block.header, tip.index_roots[name],
            tip.index_certificates[name],
        )
    return client


# -- Definition 1: forged block certificates ---------------------------------


def test_adversary_without_enclave_key_cannot_certify(certified_setup, client):
    """Malicious CI signs a fabricated header with its own key and
    attaches the honest enclave's report."""
    tip = certified_setup["issuer"].certified[-1]
    rogue = generate_keypair(b"malicious-ci")
    fake_header = replace(tip.block.header, height=tip.block.header.height + 1000)
    dig = block_digest(fake_header)
    forged = Certificate(
        pk_enc=rogue.public,
        report=tip.certificate.report,
        dig=dig,
        sig=sign(rogue.private, dig, CERT_SIG_DOMAIN),
    )
    with pytest.raises(CertificateError):
        client.validate_chain(fake_header, forged)


def test_adversary_cannot_reuse_signature_for_other_header(certified_setup, client):
    """A real signature transplanted onto a different header fails."""
    tip = certified_setup["issuer"].certified[-1]
    fake_header = replace(tip.block.header, height=tip.block.header.height + 1)
    transplanted = Certificate(
        pk_enc=tip.certificate.pk_enc,
        report=tip.certificate.report,
        dig=block_digest(fake_header),
        sig=tip.certificate.sig,
    )
    with pytest.raises(CertificateError):
        client.validate_chain(fake_header, transplanted)


def test_adversary_cannot_claim_old_cert_for_new_header(certified_setup, client):
    """Presenting an old certificate verbatim with a new header: the
    digest check (Alg. 3 line 7) catches it."""
    tip = certified_setup["issuer"].certified[-1]
    fake_header = replace(tip.block.header, timestamp=tip.block.header.timestamp + 1)
    with pytest.raises(CertificateError):
        client.validate_chain(fake_header, tip.certificate)


def test_adversary_running_modified_enclave_fails_measurement(certified_setup, client):
    """An adversary controls a *real* platform and runs a lax program
    that signs anything; its measurement differs, so its reports are
    rejected by honest clients."""
    from repro.sgx.enclave import EnclaveHost, EnclaveProgram

    class LaxProgram(EnclaveProgram):
        ECALLS = ("sign_anything",)

        def on_init(self) -> bytes:
            self._keypair = generate_keypair(b"lax")
            return self._keypair.public.to_bytes()

        def sign_anything(self, dig):
            return sign(self._keypair.private, dig, CERT_SIG_DOMAIN)

    ias = certified_setup["ias"]
    platform = SGXPlatform(seed=b"adversary-platform")
    ias.register_platform(platform)
    host = EnclaveHost(LaxProgram(), platform)
    report = host.attest(ias)  # IAS happily attests — wrong measurement

    tip = certified_setup["issuer"].certified[-1]
    fake_header = replace(tip.block.header, height=tip.block.header.height + 5)
    dig = block_digest(fake_header)
    forged = Certificate(
        pk_enc=host.program._keypair.public,
        report=report,
        dig=dig,
        sig=host.ecall("sign_anything", dig),
    )
    with pytest.raises(CertificateError):
        client.validate_chain(fake_header, forged)


def test_adversary_cannot_fake_ias(certified_setup):
    """A self-made 'IAS' signing arbitrary reports convinces nobody who
    pins the real IAS key."""
    fake_ias = AttestationService(seed=b"fake-ias")
    platform = SGXPlatform(seed=b"any")
    fake_ias.register_platform(platform)
    issuer = certified_setup["issuer"]
    quote = sign_quote(platform, issuer.measurement, b"\x02" + bytes(32))
    # the fake IAS will vouch for anything it sees
    report = fake_ias.attest(quote)
    assert not report.verify(certified_setup["ias"].public_key)


def test_chain_selection_enforced(certified_setup, client):
    """Even with a perfectly valid certificate, a lower block loses the
    longest-chain rule (Definition 1, condition ii)."""
    older = certified_setup["issuer"].certified[-3]
    assert client.validate_chain(older.block.header, older.certificate) is False
    assert client.latest_header.height == certified_setup["chain"].height


# -- Definition 2: forged query answers ---------------------------------------


def verify_history(client, name, answer):
    """Check a bare HistoryAnswer through the unified typed API."""
    request = HistoryQuery(
        index=name, account=answer.account,
        t_from=answer.t_from, t_to=answer.t_to,
    )
    return client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )


def verify_keyword(client, name, answer):
    """Check a bare KeywordAnswer through the unified typed API."""
    request = KeywordQuery(index=name, keywords=tuple(answer.keywords))
    return client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )


def test_sp_cannot_drop_history_versions(certified_setup, client):
    answer = certified_setup["issuer"].indexes["history"].query_history("k1", 1, 10)
    assert verify_history(client, "history", answer)
    assert len(answer.versions) >= 2
    assert not verify_history(
        client, "history", replace(answer, versions=answer.versions[1:])
    )


def test_sp_cannot_alter_history_values(certified_setup, client):
    answer = certified_setup["issuer"].indexes["history"].query_history("k1", 1, 10)
    forged = ((answer.versions[0][0], b"evil"),) + answer.versions[1:]
    assert not verify_history(client, "history", replace(answer, versions=forged))


def test_sp_cannot_shrink_the_window(certified_setup, client):
    """Answering a narrower window than asked is caught because the
    proof's window bounds are checked against the query."""
    index = certified_setup["issuer"].indexes["history"]
    narrow = index.query_history("k1", 5, 6)
    wide_claimed = replace(narrow, t_from=1, t_to=10)
    assert not verify_history(client, "history", wide_claimed)


def test_sp_cannot_serve_stale_index_root(certified_setup, client):
    """Answers proven against an older index snapshot fail against the
    latest certified root."""
    from repro.query.indexes import AccountHistoryIndexSpec, TwoLevelHistoryIndex
    from repro.chain.genesis import make_genesis
    from repro.chain.node import FullNode
    from tests.conftest import fresh_vm

    # Rebuild the index but stop two blocks early (a stale snapshot).
    spec = AccountHistoryIndexSpec(name="history")
    stale = TwoLevelHistoryIndex(spec)
    genesis, state = make_genesis()
    node = FullNode(genesis, state, fresh_vm(), certified_setup["chain"].pow)
    for block in certified_setup["chain"].blocks[1:-2]:
        result = node.validate_block(block)
        stale.ingest_block(block, result.write_set)
        node.commit(block, result.write_set)
    answer = stale.query_history("k1", 1, 10)
    assert not verify_history(client, "history", answer)


def test_sp_cannot_withhold_keyword_matches(certified_setup, client):
    answer = certified_setup["issuer"].indexes["keyword"].query_conjunctive(["v1"])
    assert verify_keyword(client, "keyword", answer)
    assert len(answer.results) >= 1
    assert not verify_keyword(
        client, "keyword", replace(answer, results=answer.results[:-1])
    )


def test_sp_cannot_inject_keyword_matches(certified_setup, client):
    answer = certified_setup["issuer"].indexes["keyword"].query_conjunctive(["v1"])
    padded = replace(answer, results=answer.results + ((999 << 20),))
    assert not verify_keyword(client, "keyword", padded)
