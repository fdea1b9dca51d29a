"""Negative paths for every index spec's enclave-side apply_writes.

Each test hands the trusted replay a subtly wrong proof bundle and
expects a :class:`ProofError` (or a root mismatch) — these are the
branches a malicious SP would have to defeat to get a bad index root
certified.
"""

import pytest
from dataclasses import replace

from repro.chain.builder import ChainBuilder
from repro.chain.transaction import sign_transaction
from repro.core.issuer import make_maintained_index
from repro.crypto import generate_keypair
from repro.errors import ProofError
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    KeywordUpdateProof,
    TwoLevelUpdateProof,
    ValueRangeIndexSpec,
)
from tests.merkle.test_mpt_engine import says_absent


@pytest.fixture(scope="module")
def chain():
    keypair = generate_keypair(b"neg-tests")
    builder = ChainBuilder(difficulty_bits=4)
    nonce = [0]

    def tx(contract, method, args):
        built = sign_transaction(keypair.private, nonce[0], contract, method, args)
        nonce[0] += 1
        return built

    builder.add_block([
        tx("smallbank", "create", ("alice", "100", "0")),
        tx("kvstore", "put", ("doc1", "alpha beta")),
    ])
    builder.add_block([
        tx("smallbank", "deposit_checking", ("alice", "10")),
        tx("kvstore", "put", ("doc2", "alpha gamma")),
    ])
    builder.add_block([tx("kvstore", "put", ("doc3", "gamma alpha"))])
    return builder


def ingest_two(spec, chain):
    index = make_maintained_index(spec)
    first = index.ingest_block(chain.blocks[1], chain.results[1].write_set)
    mid_root = index.root
    second = index.ingest_block(chain.blocks[2], chain.results[2].write_set)
    return index, first, mid_root, second


def test_history_wrong_order_proofs(chain):
    spec = AccountHistoryIndexSpec(name="h")
    index, (writes1, proof1), mid_root, (writes2, proof2) = ingest_two(spec, chain)
    # Proofs from block 2 cannot apply at genesis.
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), writes2, proof2)


def test_history_step_count_mismatch(chain):
    spec = AccountHistoryIndexSpec(name="h")
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    with pytest.raises(ProofError):
        spec.apply_writes(
            spec.genesis_root(), writes1, TwoLevelUpdateProof(steps=())
        )


def test_history_account_swap_detected(chain):
    spec = AccountHistoryIndexSpec(name="h")
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    if not writes1:
        pytest.skip("no history writes in block 1")
    swapped = (replace(writes1[0], account="mallory"),) + writes1[1:]
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), swapped, proof1)


def test_keyword_reordered_steps_detected(chain):
    spec = KeywordIndexSpec(name="k")
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    if len(proof1.steps) < 2:
        pytest.skip("need at least two keyword steps")
    reordered = KeywordUpdateProof(steps=proof1.steps[::-1])
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), writes1, reordered)


def test_keyword_missing_posting_detected(chain):
    spec = KeywordIndexSpec(name="k")
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    truncated = KeywordUpdateProof(steps=proof1.steps[:-1])
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), writes1, truncated)


def test_aggregate_value_tamper_changes_root(chain):
    spec = BalanceAggregateIndexSpec(name="a")
    index, (writes1, proof1), mid_root, _ = ingest_two(spec, chain)
    if not writes1:
        pytest.skip("no aggregate writes in block 1")
    inflated = (replace(writes1[0], value=writes1[0].value + 1),) + writes1[1:]
    result = spec.apply_writes(spec.genesis_root(), inflated, proof1)
    assert result != mid_root  # certification would reject the mismatch


def test_value_range_component_roots_checked(chain):
    spec = ValueRangeIndexSpec(name="v")
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    lying = replace(proof1, pre_tree_root=bytes(32))
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), writes1, lying)


def test_value_range_tombstone_required(chain):
    spec = ValueRangeIndexSpec(name="v")
    index, (writes1, proof1), mid_root, (writes2, proof2) = ingest_two(spec, chain)
    if not writes2 or proof2.steps[0][1] is None:
        pytest.skip("block 2 did not update an existing account")
    # Drop the tombstone step for an existing-account update.
    counter, _, live, directory = proof2.steps[0]
    no_tombstone = replace(
        proof2, steps=((counter, None, live, directory),) + proof2.steps[1:]
    )
    with pytest.raises(ProofError):
        spec.apply_writes(mid_root, writes2, no_tombstone)


def test_value_range_fanout_checked(chain):
    spec = ValueRangeIndexSpec(name="v", fanout=16)
    other = ValueRangeIndexSpec(name="v", fanout=8)
    index, (writes1, proof1), *_ = ingest_two(spec, chain)
    with pytest.raises(ProofError):
        other.apply_writes(other.genesis_root(), writes1, proof1)


# -- a forged "absent" in the upper level (PR 20) --------------------------------
#
# A list-typed nibble path equals no tuple but hashes the same, so before
# the MPT engine read a proof once, the leaf of a key that *is* in the
# trie could be retold as "no such key".  Every spec read that claim
# before verifying it; each forgery below returned a root at the parent.


def test_aggregate_forged_absence_cannot_restart_a_series(chain):
    from repro.merkle.aggtree import AggregateMBTree

    spec = BalanceAggregateIndexSpec(name="a")
    index, _, mid_root, (writes2, proof2) = ingest_two(spec, chain)
    (_series, upper), = proof2.steps  # alice, who already has a version
    from_nothing = AggregateMBTree(fanout=spec.fanout).prove_insert(writes2[0].timestamp)
    forged = replace(proof2, steps=((from_nothing, says_absent(upper)),))
    assert spec.apply_writes(mid_root, writes2, proof2) == index.root
    with pytest.raises(ProofError):
        spec.apply_writes(mid_root, writes2, forged)


def test_keyword_forged_absence_cannot_drop_earlier_postings(chain):
    from repro.merkle.mbtree import MerkleBTree

    spec = KeywordIndexSpec(name="k")
    index, *_ = ingest_two(spec, chain)
    prev_root = index.root
    writes3, proof3 = index.ingest_block(chain.blocks[3], chain.results[3].write_set)
    keyword, posting, upper = proof3.steps[-1]
    assert keyword == "alpha" and len(index._postings["alpha"]) == 3
    from_nothing = MerkleBTree(fanout=spec.fanout).prove_insert(posting.key)
    forged = replace(
        proof3, steps=proof3.steps[:-1] + ((keyword, from_nothing, says_absent(upper)),)
    )
    assert spec.apply_writes(prev_root, writes3, proof3) == index.root
    with pytest.raises(ProofError):
        spec.apply_writes(prev_root, writes3, forged)


def test_value_range_forged_absence_cannot_mint_a_second_slot(chain):
    """Retold as a new account, alice got a second slot and her old
    entry was never tombstoned: two live balances for one account."""
    from repro.query.indexes import (
        _SLOT_COUNTER_KEY,
        ValueRangeUpdateProof,
        _range_key,
    )

    spec = ValueRangeIndexSpec(name="v")
    index = make_maintained_index(spec)
    index.ingest_block(chain.blocks[1], chain.results[1].write_set)
    mid_root = index.root
    (write,) = spec.write_data(chain.blocks[2], chain.results[2].write_set)
    directory, tree = index._directory, index._tree
    account_key = write.account.encode("utf-8")
    assert directory.get(account_key) is not None
    pre_roots = directory.root, tree.root
    # What the SP would send had alice been new: the counter update first,
    # then a directory proof made against the result.
    counter_proof = directory.prove(_SLOT_COUNTER_KEY)
    slots = int.from_bytes(directory.get(_SLOT_COUNTER_KEY), "big")
    directory.insert(_SLOT_COUNTER_KEY, (slots + 1).to_bytes(8, "big"))
    live_proof = tree.prove_insert(_range_key(write.value, slots))
    forged = ValueRangeUpdateProof(*pre_roots, steps=((
        counter_proof, None, live_proof, says_absent(directory.prove(account_key)),
    ),))
    with pytest.raises(ProofError):
        spec.apply_writes(mid_root, (write,), forged)
