"""Aggregate-authenticated MB-tree."""

import random

import pytest

from repro.errors import ProofError
from repro.merkle.aggtree import (
    Aggregate,
    AggregateMBTree,
    EMPTY_ROOT,
    verify_aggregate,
)


@pytest.fixture()
def tree():
    tree = AggregateMBTree(fanout=8)
    rng = random.Random(21)
    for key in rng.sample(range(10_000), 400):
        tree.insert(key, key % 97 - 48)  # mixed-sign values
    return tree


def expected_aggregate(tree, lo, hi):
    values = [tree.get(k) for k in range(lo, hi + 1) if tree.get(k) is not None]
    if not values:
        return None
    return Aggregate(
        count=len(values), total=sum(values), minimum=min(values), maximum=max(values)
    )


def test_empty_tree():
    tree = AggregateMBTree()
    assert tree.root == EMPTY_ROOT
    result, proof = tree.aggregate_query(0, 100)
    assert result is None
    assert verify_aggregate(tree.root, None, proof)


def test_aggregate_merge_identity():
    a, b = Aggregate.of_value(5), Aggregate.of_value(-3)
    merged = a.merge(b)
    assert merged == Aggregate(count=2, total=2, minimum=-3, maximum=5)


@pytest.mark.parametrize("window", [(0, 9999), (2000, 4000), (5000, 5050), (9990, 9999)])
def test_aggregate_query_matches_ground_truth(tree, window):
    lo, hi = window
    result, proof = tree.aggregate_query(lo, hi)
    assert result == expected_aggregate(tree, lo, hi)
    assert verify_aggregate(tree.root, result, proof)


def test_empty_window(tree):
    keys = sorted(k for k in range(10_000) if tree.get(k) is not None)
    gap = next((a + 1, b - 1) for a, b in zip(keys, keys[1:]) if b - a > 2)
    result, proof = tree.aggregate_query(*gap)
    assert result is None
    assert verify_aggregate(tree.root, None, proof)


def test_forged_aggregate_rejected(tree):
    result, proof = tree.aggregate_query(2000, 4000)
    assert result is not None
    forged = Aggregate(
        count=result.count, total=result.total + 1,
        minimum=result.minimum, maximum=result.maximum,
    )
    assert not verify_aggregate(tree.root, forged, proof)


def test_forged_count_rejected(tree):
    result, proof = tree.aggregate_query(2000, 4000)
    forged = Aggregate(
        count=result.count - 1, total=result.total,
        minimum=result.minimum, maximum=result.maximum,
    )
    assert not verify_aggregate(tree.root, forged, proof)


def test_wrong_root_rejected(tree):
    result, proof = tree.aggregate_query(2000, 4000)
    other = AggregateMBTree(fanout=8)
    other.insert(1, 1)
    assert not verify_aggregate(other.root, result, proof)


def test_proof_size_flat_in_window_width(tree):
    """The aggregation win: a 100-key window and a 6000-key window cost
    about the same proof bytes (only boundary paths are opened)."""
    _, narrow = tree.aggregate_query(5000, 5100)
    _, wide = tree.aggregate_query(2000, 8000)
    assert wide.size_bytes() < narrow.size_bytes() * 3


def test_overwrite_updates_aggregate(tree):
    key = next(k for k in range(10_000) if tree.get(k) is not None)
    before, _ = tree.aggregate_query(key, key)
    tree.insert(key, 1000)
    after, proof = tree.aggregate_query(key, key)
    assert after == Aggregate(count=1, total=1000, minimum=1000, maximum=1000)
    assert verify_aggregate(tree.root, after, proof)
    assert before != after


def test_inverted_range_raises(tree):
    with pytest.raises(ProofError):
        tree.aggregate_query(10, 5)


def test_single_entry_tree():
    tree = AggregateMBTree()
    tree.insert(7, -5)
    result, proof = tree.aggregate_query(0, 100)
    assert result == Aggregate(count=1, total=-5, minimum=-5, maximum=-5)
    assert verify_aggregate(tree.root, result, proof)


def test_query_and_insert_work_is_bounded_by_fanout_times_depth(monkeypatch):
    """Every node caches its aggregate with its digest, so a query, an
    insert proof and a root refresh do O(fanout * depth) merges — a
    count, not a timing (a recursive recompute does ~4,096)."""
    tree = AggregateMBTree(fanout=16)
    for key in range(4096):
        tree.insert(key, key % 101 - 50)
    assert tree.root != EMPTY_ROOT  # summarised once, before counting

    merges = []
    merge = Aggregate.merge
    monkeypatch.setattr(
        Aggregate, "merge", lambda self, other: merges.append(1) or merge(self, other)
    )

    def merges_during(operation):
        merges.clear()
        operation()
        return len(merges)

    assert merges_during(lambda: tree.aggregate_query(100, 4000)) <= 200
    assert merges_during(lambda: tree.prove_insert(5000)) <= 200
    tree.insert(5000, 7)
    # Only the touched path: one leaf and one node per level above it.
    assert merges_during(lambda: tree.root) <= 16 * 4
    result, proof = tree.aggregate_query(100, 5000)
    assert result.count == 3997 and verify_aggregate(tree.root, result, proof)
