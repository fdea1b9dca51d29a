"""Hash budgets: how many SHA-256 calls a touched state path may cost.

One SHA-256 call costs about a microsecond whichever way it is made, so
on the issuer's write path the *count* is the cost.  These are the counts
ISSUE 19 named beforehand; each docstring gives the parent commit's count
for the same operation.  ``hashlib.sha256`` is counted by replacing it for
the duration of the measured call (every hash under ``src/`` is made
through ``repro.crypto.hashing``, which looks the constructor up per call).
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager

import pytest

from repro.bench.harness import CertifiedChainHarness
from repro.chain.state import StateStore
from repro.merkle.partial import PartialSMT
from repro.merkle.smt import SparseMerkleTree, default_digests, verify_proof

DEPTH = 64


@contextmanager
def counting_sha256():
    calls = [0]
    real = hashlib.sha256

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    hashlib.sha256 = counted
    try:
        yield calls
    finally:
        hashlib.sha256 = real


def sha256_calls(call, *args) -> int:
    with counting_sha256() as calls:
        call(*args)
    return calls[0]


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(19)
    tree = SparseMerkleTree(DEPTH)
    tree.update_batch({rng.randbytes(32): rng.randbytes(32) for _ in range(1024)})
    return tree


def lowest_sibling(proof) -> int:
    mask = proof.default_mask
    return (~mask & mask + 1).bit_length() - 1


def test_membership_proof_costs_one_leaf_and_one_node_per_level(tree):
    """Merge and verify: 1 leaf hash + 64 node hashes (parent: the same
    for the merge, + 64 for the defaults in every ``verify_proof``)."""
    key, value = tree.items()[0]
    proof = tree.prove(key)
    assert sha256_calls(verify_proof, tree.root, key, value, proof) == 1 + DEPTH
    slice_ = PartialSMT(DEPTH)
    assert sha256_calls(slice_.merge_entry, tree.root, key, value, proof) == 1 + DEPTH
    assert slice_.root == tree.root


def test_non_membership_costs_only_the_levels_above_its_lowest_sibling(tree):
    """An empty leaf under empty siblings is free: ``64 - L`` node hashes
    when the lowest non-default sibling sits at level ``L`` (parent: 64,
    + 64 for the defaults in ``verify_proof``)."""
    rng = random.Random(20)
    levels = set()
    for _ in range(32):
        key = rng.randbytes(32)
        proof = tree.prove(key)
        level = lowest_sibling(proof)
        levels.add(level)
        assert sha256_calls(verify_proof, tree.root, key, None, proof) == DEPTH - level
        slice_ = PartialSMT(DEPTH)
        merge = sha256_calls(slice_.merge_entry, tree.root, key, None, proof)
        assert merge == DEPTH - level
        # The free levels were still learned: the insert finds its siblings.
        assert sha256_calls(slice_.update, key, b"inserted") == 1 + DEPTH
    # 1,024 random leaves leave a stranger alone some ten levels below the root.
    assert min(levels) >= 40 and len(levels) > 1
    # The empty tree proves absence without hashing at all.
    empty = SparseMerkleTree(DEPTH)
    proof = empty.prove(key)
    assert sha256_calls(verify_proof, empty.root, key, None, proof) == 0


def test_default_digests_are_hashed_once_per_depth():
    """Parent: 64 hashes in every ``PartialSMT(64)`` and ``verify_proof``."""
    default_digests(DEPTH)
    assert sha256_calls(default_digests, DEPTH) == 0
    assert sha256_calls(PartialSMT, DEPTH) == 0
    assert sha256_calls(SparseMerkleTree, DEPTH) == 0
    assert default_digests(DEPTH) is PartialSMT(DEPTH)._defaults


# -- through the issuer ---------------------------------------------------------------

#: SHA-256 calls of the pinned IO-heavy ``process_block`` below at the
#: parent commit (b5ea3c2), recorded there with
#:   PYTHONPATH=src:. python -c "from tests.merkle.test_hash_budget import \
#:       io_block_sha256_calls as f; print(f())"
#: (``sgx.costs.cost_model_disabled()`` around it, as the suite's autouse
#: fixture does; the count does not depend on it).
PARENT_IO_BLOCK_SHA256_CALLS = 13_556


def io_world(bench_params):
    harness = CertifiedChainHarness(bench_params, seed=7)
    harness.grow_workload("IO", 3, 4)
    block, _ = harness.builder.add_block(harness.generator.block_txs("IO", 4))
    return harness, block


def io_block_sha256_calls(bench_params=None) -> int:
    """One IO-heavy block (4 transactions, ~40 touched cells, most of
    them inserts) certified on the fixture world: total SHA-256 calls."""
    from repro.bench.params import BenchParams

    params = bench_params or BenchParams(
        name="test", cert_blocks=2, default_block_size=4
    )
    harness, block = io_world(params)
    return sha256_calls(harness.issuer.process_block, block)


def test_io_heavy_block_stays_under_its_hash_budget(bench_params):
    calls = io_block_sha256_calls(bench_params)
    assert calls <= 0.65 * PARENT_IO_BLOCK_SHA256_CALLS, calls


@pytest.fixture()
def prove_many_calls(monkeypatch):
    calls = []
    real = StateStore.prove_many

    def counted(self, keys):
        calls.append(list(keys))
        return real(self, keys)

    monkeypatch.setattr(StateStore, "prove_many", counted)
    return calls


def test_process_block_proves_the_touched_keys_once(bench_params, prove_many_calls):
    """Parent: twice (``predict_root``, then ``UpdateProof.build``)."""
    harness, block = io_world(bench_params)
    prove_many_calls.clear()
    result, update_proof = harness.issuer.preprocess(block)
    assert len(prove_many_calls) == 1
    # The proofs validation replayed the writes on ARE the update proof.
    assert update_proof.entries is result.pre_state
    assert [key for key, _, _ in update_proof.entries] == result.touched_keys()
    assert prove_many_calls[0] == result.touched_keys()
    state = harness.issuer.node.state
    assert list(update_proof.entries) == state.prove_many(result.touched_keys())
    prove_many_calls.clear()
    harness.issuer.process_block(block, precomputed=(result, update_proof))
    assert prove_many_calls == []
    block, _ = harness.builder.add_block(harness.generator.block_txs("KV", 4))
    harness.issuer.process_block(block)
    assert len(prove_many_calls) == 1
