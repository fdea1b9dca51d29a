"""Compact SMT storage against the dense algorithm it replaced.

``DenseSMT`` below is the previous implementation kept as the oracle:
every non-default node materialised, ``depth`` entries per leaf.  The
compact tree must produce the same roots and the same proofs, for
members and non-members, after every step of any write sequence.
"""

import random

import pytest

from repro.errors import StateError
from repro.merkle.smt import (
    SMTProof,
    SparseMerkleTree,
    default_digests,
    hash_node,
    key_path,
    leaf_digest,
    verify_proof,
)


class DenseSMT:
    def __init__(self, depth):
        self.depth = depth
        self.defaults = default_digests(depth)
        self.values = {}
        self.path_to_key = {}
        self.nodes = {}

    @property
    def root(self):
        return self.nodes.get((self.depth, 0), self.defaults[self.depth])

    def update_batch(self, items):
        dirty = set()
        for key, value in items.items():
            path = key_path(key, self.depth)
            if self.path_to_key.get(path, key) != key:
                raise StateError("SMT path collision between distinct keys")
            if value is None:
                self.values.pop(key, None)
                self.path_to_key.pop(path, None)
                self.nodes.pop((0, path), None)
            else:
                self.values[key] = value
                self.path_to_key[path] = key
                self.nodes[(0, path)] = leaf_digest(key, value)
            dirty.add(path)
        for level in range(1, self.depth + 1):
            dirty = {path >> 1 for path in dirty}
            for prefix in dirty:
                below = self.defaults[level - 1]
                left = self.nodes.get((level - 1, prefix << 1), below)
                right = self.nodes.get((level - 1, prefix << 1 | 1), below)
                if left == below and right == below:
                    self.nodes.pop((level, prefix), None)
                else:
                    self.nodes[(level, prefix)] = hash_node(left, right)

    def update(self, key, value):
        self.update_batch({key: value})

    def prove(self, key):
        path = key_path(key, self.depth)
        mask, siblings = 0, []
        for level in range(self.depth):
            sibling = self.nodes.get((level, (path >> level) ^ 1))
            if sibling is None:
                mask |= 1 << level
            else:
                siblings.append(sibling)
        return SMTProof(key, self.depth, mask, tuple(siblings))


def _assert_same(tree, oracle, probes):
    assert tree.root == oracle.root
    assert dict(tree.items()) == oracle.values
    assert len(tree._nodes) <= 2 * len(tree) + 1
    # Nothing stale: what is stored is a subset of the dense node set.
    assert tree._nodes.items() <= oracle.nodes.items()
    for key in probes:
        proof = tree.prove(key)
        assert proof == oracle.prove(key)
        # (At depth 8 a probe can share its path with another key's leaf.)
        if oracle.path_to_key.get(key_path(key, tree.depth), key) == key:
            assert verify_proof(tree.root, key, tree.get(key), proof)


def _random_walk(depth, seed, steps, pool_size):
    """Seeded inserts, overwrites, deletes (of members and of absent
    keys) and batches over a small key pool, so every kind of step
    recurs and the tree keeps growing and shrinking."""
    rng = random.Random(seed)
    tree, oracle = SparseMerkleTree(depth), DenseSMT(depth)
    pool = [rng.randbytes(32) for _ in range(pool_size)]
    for _ in range(steps):
        kind = rng.random()
        if kind < 0.2:
            writes = {
                rng.choice(pool): rng.choice([None, rng.randbytes(rng.randrange(1, 40))])
                for _ in range(rng.randrange(1, 8))
            }
        elif kind < 0.45:
            writes = {rng.choice(pool): None}
        else:
            writes = {rng.choice(pool): rng.randbytes(rng.randrange(1, 40))}
        single = len(writes) == 1 and rng.random() < 0.8
        try:
            if single:
                oracle.update(*next(iter(writes.items())))
            else:
                oracle.update_batch(writes)
        except StateError:
            with pytest.raises(StateError):
                if single:
                    tree.update(*next(iter(writes.items())))
                else:
                    tree.update_batch(writes)
            # The dense batch stops half applied; restart it from what
            # the compact tree holds (itself checked by a fresh build).
            oracle = DenseSMT(depth)
            oracle.update_batch(dict(tree.items()))
        else:
            if single:
                tree.update(*next(iter(writes.items())))
            else:
                tree.update_batch(writes)
        probes = list(writes) + rng.sample(pool, 3) + [rng.randbytes(32)]
        _assert_same(tree, oracle, probes)
    return tree, oracle, pool


@pytest.mark.parametrize("seed", range(6))
def test_dense_depth_8_matches_oracle_and_collides_identically(seed):
    tree, oracle, pool = _random_walk(depth=8, seed=seed, steps=300, pool_size=120)
    _assert_same(tree, oracle, pool)


@pytest.mark.parametrize("depth", [64, 256])
@pytest.mark.parametrize("seed", range(3))
def test_sparse_depths_match_oracle(depth, seed):
    tree, oracle, pool = _random_walk(depth=depth, seed=seed, steps=250, pool_size=60)
    _assert_same(tree, oracle, pool)


def test_shared_prefixes_match_oracle():
    """Keys that differ only in their last path bits, or only in the
    first: long runs of one-child nodes above and below the branches."""
    rng = random.Random(5)
    tree, oracle = SparseMerkleTree(64), DenseSMT(64)
    base = rng.randbytes(32)
    keys = [base[:7] + bytes([low]) + base[8:] for low in (0, 1, 2, 3, 128, 255)]
    keys += [bytes([high]) + base[1:] for high in (0, 127, 128, 255)]
    for key in keys:
        tree.update(key, key[:4])
        oracle.update(key, key[:4])
        _assert_same(tree, oracle, keys + [rng.randbytes(32)])
    rng.shuffle(keys)
    for key in keys:
        tree.update(key, None)
        oracle.update(key, None)
        _assert_same(tree, oracle, keys)
    assert tree._nodes == {}


def test_node_count_is_linear_in_leaves_not_depth():
    rng = random.Random(9)
    tree = SparseMerkleTree(64)
    tree.update_batch({rng.randbytes(32): b"v" for _ in range(500)})
    assert len(tree._nodes) == 2 * len(tree) - 1


def test_delete_back_to_empty():
    rng = random.Random(11)
    for depth in (8, 64, 256):
        tree = SparseMerkleTree(depth)
        keys = []
        while len(keys) < 40:
            key = rng.randbytes(32)
            try:
                tree.update(key, b"value")
            except StateError:
                continue
            keys.append(key)
        rng.shuffle(keys)
        for key in keys:
            tree.update(key, None)
        assert tree.root == default_digests(depth)[depth]
        assert tree._nodes == {}
        assert len(tree) == 0 and tree._paths == []
