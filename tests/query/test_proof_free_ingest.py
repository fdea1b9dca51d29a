"""Proof-free ingest: the index a query replica or a recovering CI
rebuilds without update proofs is the index the CI proves.

Every maintained index family has one mutation sequence per write;
``ingest_block(..., prove=False)`` runs it without the MPT and B+-tree
openings only the CI's enclave reads.  Here: both forms reach the same
root after every block of a seeded chain that moves all four families,
the proving form's proofs still replay through the spec to that root,
and the proof calls are counted by caller.
"""

import random
from itertools import count

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import make_maintained_index
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.merkle.bptree import BPlusTree
from repro.merkle.mpt import MerklePatriciaTrie
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

BLOCKS = 8
ACCOUNTS = ("alice", "bob", "carol", "dave")
WORDS = ("alpha", "beta", "gamma", "delta", "eps")


def _specs():
    return [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]


@pytest.fixture(scope="module")
def chain():
    """Seeded: SmallBank accounts created at height 1, then per block a
    KVStore put with keywords, a deposit and a payment."""
    rng = random.Random(7)
    keypair = generate_keypair(b"proof-free-ingest")
    nonce = count()
    builder = ChainBuilder(difficulty_bits=4)

    def tx(contract, method, *args):
        return sign_transaction(keypair.private, next(nonce), contract, method, args)

    builder.add_block([tx("smallbank", "create", a, "100", "0") for a in ACCOUNTS])
    for height in range(2, BLOCKS + 1):
        builder.add_block([
            tx("kvstore", "put", f"k{rng.randrange(3)}",
               f"v{height} {rng.choice(WORDS)} {rng.choice(WORDS)}"),
            tx("smallbank", "deposit_checking", rng.choice(ACCOUNTS),
               str(rng.randrange(1, 50))),
            tx("smallbank", "send_payment", *rng.sample(ACCOUNTS, 2),
               str(rng.randrange(1, 20))),
        ])
    return builder


@pytest.mark.parametrize("spec", _specs(), ids=lambda spec: spec.name)
def test_both_forms_reach_the_replayed_root_after_every_block(chain, spec):
    proving, proof_free = make_maintained_index(spec), make_maintained_index(spec)
    root = spec.genesis_root()
    roots = [root]
    for block, result in zip(chain.blocks[1:], chain.results[1:]):
        writes, proof = proving.ingest_block(block, result.write_set)
        free_writes, no_proof = proof_free.ingest_block(
            block, result.write_set, prove=False
        )
        assert no_proof is None and free_writes == writes
        root = spec.apply_writes(root, writes, proof)
        assert root == proving.root == proof_free.root
        roots.append(root)
    # The chain moves this family on most blocks, not just once.
    assert len(set(roots)) >= BLOCKS // 2


@pytest.fixture()
def proof_calls(monkeypatch):
    """Counts of ``MerklePatriciaTrie.prove`` and ``prove_insert``."""
    calls = {"prove": 0, "prove_insert": 0}
    for cls, name in ((MerklePatriciaTrie, "prove"), (BPlusTree, "prove_insert")):
        def spy(self, key, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(self, key)
        monkeypatch.setattr(cls, name, spy)
    return calls


def test_a_replica_ingests_without_proofs(chain, proof_calls):
    genesis, state = make_genesis()
    provider = QueryServiceProvider(genesis, state, fresh_vm(), chain.pow, _specs())
    for block in chain.blocks[1:]:
        provider.ingest_block(block)
    assert proof_calls == {"prove": 0, "prove_insert": 0}


def _durable(chain, tmp_path, checkpoint_interval):
    platform, ias = SGXPlatform(seed=b"pf-platform"), AttestationService(seed=b"pf-ias")
    genesis, state = make_genesis()
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / "pf.wal"), genesis, state, fresh_vm(), chain.pow,
        index_specs=_specs(), platform=platform, ias=ias, key_seed=b"pf-key",
        checkpoint_interval=checkpoint_interval,
    )
    return durable, platform, ias


def test_the_issuer_proves_every_write_as_before(chain, tmp_path, proof_calls):
    """The CI still builds every opening its ecalls read: the counts
    are those of the proving ingest before the proof-free form existed."""
    durable, _, _ = _durable(chain, tmp_path, 0)
    for block in chain.blocks[1:]:
        durable.process_block(block)
    assert proof_calls == {"prove": 147, "prove_insert": 143}


def test_the_recovery_prefix_rebuilds_without_proofs(chain, tmp_path, proof_calls):
    durable, platform, ias = _durable(chain, tmp_path, BLOCKS)
    for block in chain.blocks[1:]:
        durable.process_block(block)
    assert durable.archive.read_checkpoint()[0] == BLOCKS
    proof_calls.update(prove=0, prove_insert=0)
    genesis, state = make_genesis()
    recovered = recover_issuer(
        durable.archive, genesis, state, fresh_vm(), chain.pow,
        index_specs=_specs(), platform=platform, ias=ias,
    )
    report = recovered.last_recovery
    assert (report.verified_blocks, report.replayed_blocks) == (BLOCKS, 0)
    assert proof_calls == {"prove": 0, "prove_insert": 0}
    for name in recovered.indexes:
        assert recovered.indexes[name].root == durable.indexes[name].root
