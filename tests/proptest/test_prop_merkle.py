"""Authenticated structures: every proof verifies for what is committed
and for nothing else, every window query returns exactly what the
structure holds in it, and the proof-based update functions track the
real structures exactly.  (The engines' exhaustive differentials sit
beside them: tests/merkle/test_smt_walk.py, test_mpt_engine.py,
test_mbtree.py.)  Seeds and replay: tests/proptest/framework.py.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.merkle.mbtree import MerkleBTree, apply_insert, verify_range
from repro.merkle.mht import MerkleTree, verify_membership
from repro.merkle.mmr import MerkleMountainRange, verify_mmr
from repro.merkle.mpt import MerklePatriciaTrie, apply_update, verify_mpt
from repro.merkle.partial import PartialSMT
from repro.merkle.skiplist import AuthenticatedSkipList, verify_window
from repro.merkle.smt import SparseMerkleTree, verify_proof
from tests.proptest.framework import blob, run_cases


def _window(rng, high):
    return sorted((rng.randint(0, high), rng.randint(0, high)))


def _items(rng, key_high, low, high):
    """A dict of ``low``..``high`` random non-empty keys -> non-empty values."""
    return {blob(rng, 1, key_high): blob(rng, 1, 16) for _ in range(rng.randint(low, high))}


def test_mht_every_leaf_proves():
    def prop(rng):
        leaves = [blob(rng, 0, 16) for _ in range(rng.randint(1, 40))]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_membership(tree.root, leaf, tree.prove(index))

    run_cases(prop)


def test_smt_membership_and_absence():
    def prop(rng):
        tree = SparseMerkleTree(depth=64)
        hashed = {sha256(label): value for label, value in _items(rng, 8, 1, 30).items()}
        tree.update_batch(dict(hashed))
        for key, value in hashed.items():
            assert verify_proof(tree.root, key, value, tree.prove(key))
        probe = rng.choice((sha256(b"probe:" + blob(rng, 1, 8)), rng.choice(list(hashed))))
        assert verify_proof(tree.root, probe, hashed.get(probe), tree.prove(probe))

    run_cases(prop)


def test_partial_smt_tracks_full_tree_under_any_writes():
    def prop(rng):
        tree = SparseMerkleTree(depth=64)
        items = _items(rng, 6, 2, 20)
        for label, value in items.items():
            tree.update(sha256(label), value)
        writes = {
            rng.choice((blob(rng, 1, 6), rng.choice(list(items)))): rng.choice((None, blob(rng, 1, 8)))
            for _ in range(rng.randint(1, 10))
        }
        keys = [sha256(label) for label in sorted({*items, *writes})]
        partial = PartialSMT.from_proofs(
            tree.root, [(key, tree.get(key), tree.prove(key)) for key in keys]
        )
        for label, value in writes.items():
            partial.update(sha256(label), value)
            tree.update(sha256(label), value)
        assert partial.root == tree.root

    run_cases(prop)


def test_mpt_membership_and_absence():
    def prop(rng):
        items = _items(rng, 6, 1, 30)
        trie = MerklePatriciaTrie()
        for key, value in items.items():
            trie.insert(key, value)
        for key, value in items.items():
            assert verify_mpt(trie.root, key, value, trie.prove(key))
        probe = blob(rng, 1, 6)
        assert verify_mpt(trie.root, probe, items.get(probe), trie.prove(probe))

    run_cases(prop)


def test_mpt_apply_update_tracks_inserts():
    def prop(rng):
        initial = _items(rng, 6, 0, 20)
        trie = MerklePatriciaTrie()
        for key, value in initial.items():
            trie.insert(key, value)
        for _ in range(rng.randint(1, 10)):
            key = rng.choice((blob(rng, 1, 6), *initial)) if initial else blob(rng, 1, 6)
            value = blob(rng, 1, 8)
            predicted = apply_update(trie.root, key, value, trie.prove(key))
            trie.insert(key, value)
            assert predicted == trie.root

    run_cases(prop)


def test_mbtree_range_queries_complete():
    def prop(rng):
        keys = rng.sample(range(10_001), rng.randint(1, 60))
        lo, hi = _window(rng, 10_000)
        tree = MerkleBTree(fanout=rng.choice((4, 8, 16)))
        for key in keys:
            tree.insert(key, b"v%d" % key)
        results, proof = tree.range_query(lo, hi)
        assert verify_range(tree.root, results, proof)
        assert results == sorted((key, b"v%d" % key) for key in keys if lo <= key <= hi)

    run_cases(prop)


def test_mbtree_apply_insert_tracks_tree():
    def prop(rng):
        tree = MerkleBTree(fanout=rng.choice((4, 8)))
        for key in rng.sample(range(100_001), rng.randint(1, 80)):
            proof = tree.prove_insert(key)
            predicted = apply_insert(tree.root, key, b"v%d" % key, proof)
            tree.insert(key, b"v%d" % key)
            assert predicted == tree.root

    run_cases(prop)


def test_skiplist_window_queries_complete():
    def prop(rng):
        lo, hi = _window(rng, 400)
        skiplist = AuthenticatedSkipList()
        keys = [index * 5 for index in range(rng.randint(1, 80))]
        for key in keys:
            skiplist.append(key, b"v%d" % key)
        results, proof = skiplist.window_query(lo, hi)
        assert verify_window(skiplist.root, results, proof)
        assert results == [(key, b"v%d" % key) for key in keys if lo <= key <= hi]

    run_cases(prop)


def test_mmr_membership():
    def prop(rng):
        count = rng.randint(1, 60)
        mmr = MerkleMountainRange()
        for index in range(count):
            mmr.append(b"leaf-%d" % index)
        index = rng.randrange(count)
        assert verify_mmr(mmr.root, b"leaf-%d" % index, mmr.prove(index))

    run_cases(prop)
