"""Differential: batched issuance == sequential issuance, byte for byte.

The batched path's contract is that it changes the *cost shape* of
certification, never its output: for any chain, any batch split, and
any proof-cache capacity, the certificates must be byte-identical to
the sequential path's, the authenticated-index roots and certificates
must match, and a superlight client must see exactly the same chain.
Both issuers share the platform / IAS / signing-key seeds, so even the
attestation reports inside the certificates are identical and full
``Certificate.encode()`` equality is meaningful.

The big test certifies 200 seeded random blocks (4 chains x 50) through
the batched pipeline with the proof cache on and diffs every encoded
certificate against the sequential run's.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificationPipeline,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.core import enclave_program
from repro.core.issuer import CertificateIssuer
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.query.api import HistoryQuery, QueryAnswer
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

_USER = generate_keypair(b"batch-diff-user")


def random_chain(seed: int, blocks: int, *, difficulty_bits: int = 4,
                 key_pool: int = 6) -> ChainBuilder:
    """A seeded random KV chain: 1-3 puts per block over a small hot
    key pool (overlap is what exercises the proof cache)."""
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


def make_issuer(builder: ChainBuilder, seed: int, *, indexes: bool = True,
                cache: int = 0) -> CertificateIssuer:
    """An issuer with every identity seed pinned, so two issuers over
    the same chain produce byte-identical certificates."""
    genesis, state = make_genesis(network=f"batch-diff-{seed}")
    return CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[AccountHistoryIndexSpec(name="history")] if indexes else [],
        ias=AttestationService(seed=b"batch-diff-ias"),
        platform=SGXPlatform(seed=b"batch-diff-platform"),
        key_seed=b"batch-diff-enclave",
        proof_cache_entries=cache,
    )


def assert_identical(seq: CertificateIssuer, bat: CertificateIssuer) -> None:
    """Every client-visible artifact matches, byte for byte."""
    assert len(seq.certified) == len(bat.certified)
    for a, b in zip(seq.certified, bat.certified):
        assert a.certificate.encode() == b.certificate.encode(), (
            f"certificate differs at height {a.block.header.height}"
        )
        assert set(a.index_certificates) == set(b.index_certificates)
        for name, cert in a.index_certificates.items():
            assert cert.encode() == b.index_certificates[name].encode()
        assert a.index_roots == b.index_roots
    assert seq.node.state.root == bat.node.state.root
    assert seq.latest_certificate == bat.latest_certificate
    assert seq._index_roots == bat._index_roots


def run_batched(builder: ChainBuilder, seed: int, batch_size: int,
                *, cache: int = 64) -> CertificateIssuer:
    issuer = make_issuer(builder, seed, cache=cache)
    pipeline = CertificationPipeline(issuer, batch_size=batch_size)
    for block in builder.blocks[1:]:
        pipeline.submit(block)
    pipeline.close()
    return issuer


@pytest.fixture(scope="module")
def chain12():
    return random_chain(seed=1201, blocks=12)


@pytest.fixture(scope="module")
def sequential12(chain12):
    issuer = make_issuer(chain12, 1201)
    for block in chain12.blocks[1:]:
        issuer.process_block(block)
    return issuer


@pytest.mark.parametrize("batch_size", [1, 5, 6])
def test_batched_is_byte_identical(chain12, sequential12, batch_size):
    """Batch sizes 1, K, and K+1 (12 = 2x6 lands a boundary exactly on
    the tip; 5 leaves a 2-block tail batch)."""
    batched = run_batched(chain12, 1201, batch_size)
    assert_identical(sequential12, batched)


def test_batched_without_cache_is_byte_identical(chain12, sequential12):
    batched = run_batched(chain12, 1201, 4, cache=0)
    assert_identical(sequential12, batched)


def test_batch_spanning_index_certification_boundary(chain12, sequential12):
    """Interleave the paths: sequential certification advances the block
    and index certificate chains *between* batches, so each batch must
    re-anchor on certificates the batch ecall did not issue (and the
    enclave must drop its stale carried slice)."""
    issuer = make_issuer(chain12, 1201, cache=64)
    blocks = chain12.blocks[1:]
    for block in blocks[:3]:
        issuer.process_block(block)
    issuer.issue_batch(blocks[3:8])
    for block in blocks[8:10]:
        issuer.process_block(block)
    issuer.issue_batch(blocks[10:])
    assert_identical(sequential12, issuer)


def test_ledger_totals_differ_only_by_modeled_savings(chain12, monkeypatch):
    """Bookkeeping (always recorded): the sequential path pays one ecall
    per block certificate plus one per index update; the batched path
    pays one per batch.  Nothing else about the work differs."""
    checked = []
    verify_certificate = enclave_program.verify_certificate
    monkeypatch.setattr(
        enclave_program, "verify_certificate",
        lambda *args: checked.append(args) or verify_certificate(*args),
    )
    seq = make_issuer(chain12, 1201)
    for block in chain12.blocks[1:]:
        seq.process_block(block)
    sequential_checks = len(checked)
    bat = run_batched(chain12, 1201, 4)
    batched_checks = len(checked) - sequential_checks
    blocks = len(chain12.blocks) - 1
    indexes = 1
    assert seq.enclave.ledger.ecalls == blocks * (1 + indexes)
    assert bat.enclave.ledger.ecalls == blocks / 4
    assert seq.enclave.ledger.ocalls == bat.enclave.ledger.ocalls == 0
    # The batched enclave skips the per-block anchor re-verification: it
    # checks certificates at batch boundaries only.  (Counted, not timed:
    # the sequential path's checks are memo lookups, so in-enclave time
    # no longer tells the two paths apart beyond run-to-run noise.)
    assert sequential_checks == (blocks - 1) * (1 + 2 * indexes) + indexes
    assert batched_checks == (blocks / 4 - 1) * (1 + indexes)


def test_client_visible_state_matches(chain12, sequential12):
    """A superlight client accepts both runs' tips interchangeably and
    verifies the same query answer against either."""
    batched = run_batched(chain12, 1201, 5)
    measurement = compute_expected_measurement(
        chain12.blocks[0].header.header_hash(),
        sequential12.ias.public_key,
        fresh_vm(),
        chain12.pow.difficulty_bits,
        {"history": AccountHistoryIndexSpec(name="history")},
    )
    for issuer in (sequential12, batched):
        client = SuperlightClient(measurement, issuer.ias.public_key)
        tip = issuer.certified[-1]
        assert client.validate_chain(tip.block.header, tip.certificate)
        client.validate_index_certificate(
            "history", tip.block.header,
            tip.index_roots["history"], tip.index_certificates["history"],
        )
        request = HistoryQuery(
            index="history", account="acct1", t_from=1,
            t_to=tip.block.header.height,
        )
        answer = issuer.indexes["history"].query_history(
            "acct1", 1, tip.block.header.height
        )
        assert client.verify_answer(
            request, QueryAnswer(request=request, payload=answer)
        )


def test_200_seeded_random_blocks_byte_identical():
    """The acceptance sweep: 4 seeded chains x 50 blocks, batched K=8
    with the proof cache on, every certificate diffed byte-for-byte."""
    total = 0
    for seed in (7, 11, 23, 42):
        builder = random_chain(seed, blocks=50, difficulty_bits=1)
        seq = make_issuer(builder, seed)
        for block in builder.blocks[1:]:
            seq.process_block(block)
        bat = run_batched(builder, seed, 8, cache=64)
        assert_identical(seq, bat)
        assert bat.proof_cache.hits > 0, "hot keys never hit the cache"
        total += len(bat.certified)
    assert total == 200


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
    the new measurement sequential == batched == recovered."""
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

    assert_identical(seq, run_batched(builder, 7, 8, cache=64))

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
