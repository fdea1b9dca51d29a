"""The certificate golden: every byte the issuer signs, pinned.

Recorded by ``process_block`` -- the one certification path -- over a
seeded 50-block chain, so it is the before/after proof for any refactor
of the enclave program (``tests/core/test_program_identity.py`` says
when an identity must bump instead).  Both issuers share the platform /
IAS / signing-key seeds, so even the attestation reports inside the
certificates are identical and full ``Certificate.encode()`` equality
is meaningful.  (Moved here unchanged from the deleted
``test_batch_differential.py``; the seed strings keep its name.)
"""

from __future__ import annotations

import hashlib
import random

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import CertificateIssuer
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

_USER = generate_keypair(b"batch-diff-user")


def random_chain(seed: int, blocks: int, *, difficulty_bits: int = 4,
                 key_pool: int = 6) -> ChainBuilder:
    """A seeded random KV chain: 1-3 puts per block over a small hot
    key pool."""
    rng = random.Random(seed)
    builder = ChainBuilder(
        difficulty_bits=difficulty_bits, network=f"batch-diff-{seed}"
    )
    nonce = 0
    for _ in range(blocks):
        txs = []
        for _ in range(rng.randint(1, 3)):
            key = f"acct{rng.randrange(key_pool)}"
            txs.append(sign_transaction(
                _USER.private, nonce, "kvstore", "put",
                (key, f"v{rng.randrange(1000)}"),
            ))
            nonce += 1
        builder.add_block(txs)
    return builder


def make_issuer(builder: ChainBuilder, seed: int) -> CertificateIssuer:
    """An issuer with every identity seed pinned, so two issuers over
    the same chain produce byte-identical certificates."""
    genesis, state = make_genesis(network=f"batch-diff-{seed}")
    return CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[AccountHistoryIndexSpec(name="history")],
        ias=AttestationService(seed=b"batch-diff-ias"),
        platform=SGXPlatform(seed=b"batch-diff-platform"),
        key_seed=b"batch-diff-enclave",
    )


# -- the PR 16 measurement bump -------------------------------------------------

#: Recorded at PR 15 (measurement = hash of source text) over the 50-block
#: seed-7 chain below: sha256 over ``pk_enc || dig || sig`` of all 100
#: certificates, and that tree's measurement for this configuration.
PR15_PK_DIG_SIG_SHA256 = (
    "fd1ccba53dbef2960424efe3b05bec74d6a2aa6085af073530d33fabbc52784a"
)
PR15_MEASUREMENT = "f263ae27a01f7ec2af7f24e06f6563f9de191ada1f7305ab01dc962c3e7eedd6"
#: The certificate golden at ``dcert.enclave/2``: sha256 over every
#: ``Certificate.encode()``.  Moves only with a declared identity (see
#: tests/core/test_program_identity.py), never with a refactor.
#: Re-pinned once at PR 20 (was 27c563f8…eff0ac): the history and keyword
#: specs went ``/1`` -> ``/2`` because ``/1`` signs a false index root for
#: a list-typed MPT proof; only the report's measurement bytes differ
#: (``PR15_PK_DIG_SIG_SHA256`` above is unmoved).
ENCODED_SHA256 = "39b8fe2854e190cbacfd0b9b58d21faca074ddbdc4b32300ee59be6b840124ee"


def _all_certificates(issuer):
    for certified in issuer.certified:
        yield certified.certificate
        yield certified.index_certificates["history"]


def test_certificates_differ_from_pr15_only_through_the_measurement(tmp_path):
    """Signing is deterministic RFC 6979 under a seeded ``sk_enc``, so
    everything the enclave itself produces (``dig``, ``sig``, under the
    same ``pk_enc``) is what the source-hashing tree produced; only the
    attestation report, which carries the measurement, is new.  And at
    the new measurement in-memory == durable == recovered."""
    builder = random_chain(7, blocks=50, difficulty_bits=1)
    seq = make_issuer(builder, 7)
    for block in builder.blocks[1:]:
        seq.process_block(block)
    certificates = list(_all_certificates(seq))
    assert len(certificates) == 100

    enclave_made = hashlib.sha256()
    for cert in certificates:
        enclave_made.update(cert.pk_enc.to_bytes() + cert.dig + cert.sig.to_bytes())
    assert enclave_made.hexdigest() == PR15_PK_DIG_SIG_SHA256
    assert {cert.report.measurement for cert in certificates} == {seq.measurement}
    assert seq.measurement.hex() != PR15_MEASUREMENT
    encoded = hashlib.sha256(b"".join(cert.encode() for cert in certificates))
    assert encoded.hexdigest() == ENCODED_SHA256

    genesis, state = make_genesis(network="batch-diff-7")
    identity = dict(
        index_specs=[AccountHistoryIndexSpec(name="history")],
        ias=AttestationService(seed=b"batch-diff-ias"),
        platform=SGXPlatform(seed=b"batch-diff-platform"),
    )
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / "ci.wal"), genesis, state, fresh_vm(), builder.pow,
        key_seed=b"batch-diff-enclave", checkpoint_interval=16, **identity,
    )
    for block in builder.blocks[1:]:
        durable.process_block(block)
    genesis, state = make_genesis(network="batch-diff-7")
    recovered = recover_issuer(
        durable.archive, genesis, state, fresh_vm(), builder.pow, **identity
    )
    assert recovered.last_recovery.checkpoint_used
    for issuer in (durable.issuer, recovered.issuer):
        assert [c.encode() for c in _all_certificates(issuer)] == [
            c.encode() for c in certificates
        ]
