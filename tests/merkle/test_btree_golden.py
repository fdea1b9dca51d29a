"""Byte identity of both authenticated B+-trees (MB-tree, aggregate tree).

One digest over a seeded insert walk at fanouts 4, 5 and 16: every
intermediate root, the wire encoding of every insert / range / aggregate
proof (each decoded back and compared) and every ``size_bytes()``.  The
pinned value was recorded at the commit *before* the two trees moved
onto the shared engine (`repro.merkle.bptree`), so any change to a root,
a proof shape or a wire name shows up here.
"""

import hashlib
import random

from repro.merkle import aggtree, mbtree
from repro.net import wire

GOLDEN = "f0d4d00a39ca75863ab7785caf1aded54051e917b9488bc343a6674854c39307"

INSERTS = 600
KEY_SPACE = 2_000  # < 3 * INSERTS: the walk overwrites as well as inserts


def _absorb(hasher, obj) -> None:
    encoded = wire.encode(obj)
    assert wire.decode(encoded) == obj
    hasher.update(len(encoded).to_bytes(4, "big") + encoded)
    hasher.update(obj.size_bytes().to_bytes(4, "big"))


def _walk(hasher, tree, module, value_of, query) -> None:
    rng = random.Random(f"btree-golden-{module.__name__}-{tree.fanout}")
    assert tree.root == module.EMPTY_ROOT
    for step in range(INSERTS):
        key = rng.randrange(KEY_SPACE)
        value = value_of(rng, key)
        proof = tree.prove_insert(key)
        _absorb(hasher, proof)
        predicted = module.apply_insert(tree.root, key, value, proof)
        tree.insert(key, value)
        assert predicted == tree.root
        hasher.update(tree.root)
        if step % 7 == 0:
            lo = rng.randrange(KEY_SPACE)
            hi = lo + rng.choice((0, 3, 40, 700, KEY_SPACE))
            result, range_proof = query(tree, lo, hi)
            hasher.update(repr(result).encode())
            _absorb(hasher, range_proof)


def _mb_value(rng, key):
    return b"v%d-" % key + rng.randbytes(rng.randrange(0, 40))


def _agg_value(rng, key):
    return rng.choice((-1, 1)) * rng.randrange(1 << rng.choice((1, 16, 100)))


def _mb_query(tree, lo, hi):
    results, proof = tree.range_query(lo, hi)
    assert mbtree.verify_range(tree.root, results, proof)
    return results, proof


def _agg_query(tree, lo, hi):
    result, proof = tree.aggregate_query(lo, hi)
    assert aggtree.verify_aggregate(tree.root, result, proof)
    return result, proof


def golden_digest() -> str:
    hasher = hashlib.sha256()
    for fanout in (4, 5, 16):
        _walk(hasher, mbtree.MerkleBTree(fanout=fanout), mbtree, _mb_value, _mb_query)
        _walk(
            hasher, aggtree.AggregateMBTree(fanout=fanout), aggtree, _agg_value, _agg_query
        )
    return hasher.hexdigest()


def test_tree_bytes_match_the_digest_recorded_at_the_parent_commit():
    assert golden_digest() == GOLDEN
