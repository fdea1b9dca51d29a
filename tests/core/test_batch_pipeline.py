"""Batched issuance mechanics: staging, pipeline, proof cache, RPC.

The differential suite (test_batch_differential.py) proves the batched
path's *output* equals the sequential path's; this file covers the
machinery around it — the staging queue's guard rails, the
CertificationPipeline's flush/auto-flush behaviour and stats, the
ProofCache LRU, PartialSMT.forget, failure handling (a tampered staged
proof must abort and leave the issuer able to continue), and the
``certify_range`` RPC surface.
"""

from __future__ import annotations

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import CertificationPipeline
from repro.core.issuer import CertificateIssuer, IssuerService
from repro.crypto import generate_keypair
from repro.crypto.hashing import sha256
from repro.errors import CertificateError, ProofError
from repro.merkle.partial import PartialSMT
from repro.merkle.proofcache import ProofCache
from repro.merkle.smt import SparseMerkleTree
from repro.net import MessageBus, RpcClient
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm

_USER = generate_keypair(b"batch-pipe-user")


def build_chain(blocks: int = 10) -> ChainBuilder:
    builder = ChainBuilder(difficulty_bits=4, network="batch-pipe")
    nonce = 0
    for i in range(blocks):
        builder.add_block([sign_transaction(
            _USER.private, nonce, "kvstore", "put",
            (f"k{i % 3}", f"v{i}"),
        )])
        nonce += 1
    return builder


@pytest.fixture()
def world():
    builder = build_chain()
    genesis, state = make_genesis(network="batch-pipe")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[AccountHistoryIndexSpec(name="history")],
        ias=AttestationService(seed=b"batch-pipe-ias"),
        key_seed=b"batch-pipe-enclave",
        proof_cache_entries=32,
    )
    return builder, issuer


# -- pipeline ----------------------------------------------------------------


def test_pipeline_auto_flush_at_batch_size(world):
    builder, issuer = world
    pipeline = CertificationPipeline(issuer, batch_size=4)
    out = []
    for block in builder.blocks[1:]:
        out.extend(pipeline.submit(block))
    # 10 blocks at K=4: two auto-flushes, 2 staged blocks left over.
    assert len(out) == 8
    assert issuer.staged_count == 2
    out.extend(pipeline.close())
    assert len(out) == 10
    assert pipeline.stats.blocks == 10
    assert pipeline.stats.batches == 3
    assert pipeline.stats.stage_s > 0.0
    assert pipeline.stats.certify_s > 0.0
    assert pipeline.stats.pipelined_latency_s() <= (
        pipeline.stats.stage_s + pipeline.stats.certify_s
    )


def test_pipeline_manual_flush_and_empty_flush(world):
    builder, issuer = world
    pipeline = CertificationPipeline(issuer, batch_size=100, auto_flush=False)
    assert pipeline.flush() == []
    pipeline.submit(builder.blocks[1])
    pipeline.submit(builder.blocks[2])
    certified = pipeline.flush()
    assert [c.block.header.height for c in certified] == [1, 2]
    assert pipeline.flush() == []


def test_pipeline_rejects_bad_batch_size(world):
    _, issuer = world
    with pytest.raises(ValueError):
        CertificationPipeline(issuer, batch_size=0)


def test_certify_staged_empty_is_noop(world):
    _, issuer = world
    assert issuer.certify_staged() == []


def test_process_block_with_staged_pending_raises(world):
    builder, issuer = world
    issuer.stage_block(builder.blocks[1])
    with pytest.raises(CertificateError, match="staged"):
        issuer.process_block(builder.blocks[2])
    # The staged block is still certifiable.
    certified = issuer.certify_staged()
    assert [c.block.header.height for c in certified] == [1]


def test_tampered_staged_proof_aborts_and_recovers(world):
    """A stale/forged update proof in a staged item must abort the whole
    batch (ProofError from the enclave), clear the cache mirror, and
    leave the issuer able to certify later blocks from scratch."""
    builder, issuer = world
    issuer.issue_batch(builder.blocks[1:3])
    issuer.stage_block(builder.blocks[3])
    staged = issuer._staged[0]
    # Replace the proof with one against the *new* root: entries verify
    # against the wrong root inside the enclave and must be rejected.
    from dataclasses import replace

    from repro.core.updateproof import UpdateProof

    stale = UpdateProof(
        entries=tuple(issuer.node.state.prove_many(sorted(staged.write_set)))
    )
    issuer._staged[0] = replace(staged, item=replace(staged.item, update_proof=stale))
    with pytest.raises(ProofError):
        issuer.certify_staged()
    assert issuer.proof_cache.keys() == set()
    assert issuer._enclave_keys == set()
    assert issuer.staged_count == 0


def test_issue_batch_after_failure_continues(world):
    """After an aborted batch the chain state has advanced past the
    failed blocks; a fresh issuer run over the same blocks still works
    (full proofs are re-shipped since the mirror was cleared)."""
    builder, issuer = world
    issuer.issue_batch(builder.blocks[1:4])
    certified = issuer.issue_batch(builder.blocks[4:7])
    assert [c.block.header.height for c in certified] == [4, 5, 6]


# -- proof cache -------------------------------------------------------------


def test_proof_cache_lru_eviction_order():
    cache = ProofCache(2)
    assert not cache.lookup(b"a")
    cache.admit(b"a")
    cache.admit(b"b")
    assert cache.lookup(b"a")  # refreshes a's recency
    cache.admit(b"c")  # evicts b (least recently used)
    assert cache.keys() == {b"a", b"c"}
    assert cache.evictions == 1
    assert not cache.lookup(b"b")
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert 0.0 < stats["hit_rate"] < 1.0


def test_proof_cache_capacity_zero_disables():
    cache = ProofCache(0)
    cache.admit(b"a")
    assert not cache.lookup(b"a")
    assert len(cache) == 0
    assert cache.hit_rate() == 0.0


def test_proof_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        ProofCache(-1)


# -- PartialSMT.forget -------------------------------------------------------


def _k(label: str) -> bytes:
    return sha256(label.encode())


def test_partial_smt_forget_prunes_but_stays_usable():
    tree = SparseMerkleTree(depth=16)
    items = {_k(f"key{i}"): f"val{i}".encode() for i in range(6)}
    for key, value in items.items():
        tree.update(key, value)
    root = tree.root
    entries = [(key, value, tree.prove(key)) for key, value in items.items()]
    partial = PartialSMT.from_proofs(root, entries)
    nodes_before = len(partial._nodes)

    partial.forget([_k("key0"), _k("key1"), b"\x00" * 32])
    assert len(partial) == 4
    assert not partial.covers(_k("key0"))
    assert len(partial._nodes) < nodes_before
    # Forgotten keys are unreadable and unwritable...
    with pytest.raises(ProofError):
        partial.get(_k("key0"))
    with pytest.raises(ProofError):
        partial.update(_k("key1"), b"x")
    # ...while remaining keys still read and write correctly, and the
    # recomputed root tracks the full tree.
    assert partial.get(_k("key2")) == b"val2"
    partial.update(_k("key3"), b"new3")
    tree.update(_k("key3"), b"new3")
    assert partial.root == tree.root


def test_partial_smt_forget_everything_clears_nodes():
    tree = SparseMerkleTree(depth=16)
    tree.update(_k("k"), b"v")
    partial = PartialSMT.from_proofs(tree.root, [(_k("k"), b"v", tree.prove(_k("k")))])
    partial.forget([_k("k")])
    assert len(partial) == 0
    assert partial._nodes == {}


def test_partial_smt_forget_noop_keeps_nodes():
    tree = SparseMerkleTree(depth=16)
    tree.update(_k("k"), b"v")
    partial = PartialSMT.from_proofs(tree.root, [(_k("k"), b"v", tree.prove(_k("k")))])
    nodes = dict(partial._nodes)
    partial.forget([_k("other")])
    assert partial._nodes == nodes


# -- certify_range RPC -------------------------------------------------------


@pytest.fixture()
def rpc_world(world):
    builder, issuer = world
    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", issuer)
    client = RpcClient(bus, "relay")
    return builder, issuer, bus, client


def test_certify_range_over_rpc(rpc_world):
    builder, issuer, bus, client = rpc_world
    tips = client.call("ci", "certify_range", list(builder.blocks[1:6]))
    assert len(tips) == 5
    assert [tip.header.height for tip in tips] == [1, 2, 3, 4, 5]
    assert tips[-1].certificate == issuer.latest_certificate
    assert "history" in tips[-1].index_certificates
    # The issuer committed the blocks; a follow-up latest_tip agrees.
    latest = client.call("ci", "latest_tip")
    assert latest.header == tips[-1].header


def test_certify_range_rejects_bad_arguments(rpc_world):
    _, _, _, client = rpc_world
    with pytest.raises(CertificateError):
        client.call("ci", "certify_range", [])
    with pytest.raises(CertificateError):
        client.call("ci", "certify_range", ["not-a-block"])


def test_certify_range_propagates_validation_errors(rpc_world):
    builder, issuer, _, client = rpc_world
    # Skipping a height breaks the chain linkage check.
    with pytest.raises(Exception) as excinfo:
        client.call("ci", "certify_range", [builder.blocks[2]])
    assert "height" in str(excinfo.value) or "prev" in str(excinfo.value).lower()
    # The issuer is unharmed and can still certify the proper range.
    tips = client.call("ci", "certify_range", list(builder.blocks[1:3]))
    assert len(tips) == 2
