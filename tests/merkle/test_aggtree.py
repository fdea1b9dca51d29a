"""Aggregate-authenticated MB-tree."""

import dataclasses
import random

import pytest

from repro.errors import ProofError
from repro.merkle.aggtree import (
    Aggregate,
    AggregateMBTree,
    EMPTY_ROOT,
    AggInternalOpening,
    AggStub,
    open_aggregate,
    read_aggregate,
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
    proof = tree.aggregate_query(0, 100)
    assert read_aggregate(proof) is None
    assert open_aggregate(tree.root, proof) is None


def test_aggregate_merge_identity():
    a, b = Aggregate.of_value(5), Aggregate.of_value(-3)
    merged = a.merge(b)
    assert merged == Aggregate(count=2, total=2, minimum=-3, maximum=5)


@pytest.mark.parametrize("window", [(0, 9999), (2000, 4000), (5000, 5050), (9990, 9999)])
def test_aggregate_query_matches_ground_truth(tree, window):
    lo, hi = window
    proof = tree.aggregate_query(lo, hi)
    assert open_aggregate(tree.root, proof) == expected_aggregate(tree, lo, hi)


def test_empty_window(tree):
    keys = sorted(k for k in range(10_000) if tree.get(k) is not None)
    gap = next((a + 1, b - 1) for a, b in zip(keys, keys[1:]) if b - a > 2)
    proof = tree.aggregate_query(*gap)
    assert read_aggregate(proof) is None
    assert open_aggregate(tree.root, proof) is None


def _with_covered_stub(proof, forge):
    """``proof`` with the first stub its window covers re-summarised by
    ``forge(aggregate)``: a claim the prover made inside the proof."""
    def walk(node):
        if isinstance(node, AggStub):
            covered = proof.lo <= node.min_key and node.max_key <= proof.hi
            return dataclasses.replace(node, aggregate=forge(node.aggregate)) if covered else None
        for at, child in enumerate(getattr(node, "children", ())):
            if (forged := walk(child)) is not None:
                children = (*node.children[:at], forged, *node.children[at + 1:])
                return AggInternalOpening(children=children)
        return None

    return dataclasses.replace(proof, root_opening=walk(proof.root_opening))


def _read_but_rejected(tree, forge):
    """The aggregate is read from the proof, so a forger edits a stub's
    summary there: the reader returns the forged figure, which no longer
    opens under the root."""
    proof = tree.aggregate_query(2000, 4000)
    result = open_aggregate(tree.root, proof)
    forged = _with_covered_stub(proof, forge)
    assert read_aggregate(forged) != result
    with pytest.raises(ProofError):
        open_aggregate(tree.root, forged)


def test_forged_aggregate_rejected(tree):
    _read_but_rejected(tree, lambda a: dataclasses.replace(a, total=a.total + 1))


def test_forged_count_rejected(tree):
    _read_but_rejected(tree, lambda a: dataclasses.replace(a, count=a.count - 1))


def test_wrong_root_rejected(tree):
    proof = tree.aggregate_query(2000, 4000)
    other = AggregateMBTree(fanout=8)
    other.insert(1, 1)
    with pytest.raises(ProofError):
        open_aggregate(other.root, proof)


def test_proof_size_flat_in_window_width(tree):
    """The aggregation win: a 100-key window and a 6000-key window cost
    about the same proof bytes (only boundary paths are opened)."""
    narrow = tree.aggregate_query(5000, 5100)
    wide = tree.aggregate_query(2000, 8000)
    assert wide.size_bytes() < narrow.size_bytes() * 3


def test_overwrite_updates_aggregate(tree):
    key = next(k for k in range(10_000) if tree.get(k) is not None)
    before = read_aggregate(tree.aggregate_query(key, key))
    tree.insert(key, 1000)
    after = open_aggregate(tree.root, tree.aggregate_query(key, key))
    assert after == Aggregate(count=1, total=1000, minimum=1000, maximum=1000)
    assert before != after


def test_inverted_range_raises(tree):
    with pytest.raises(ProofError):
        tree.aggregate_query(10, 5)


def test_single_entry_tree():
    tree = AggregateMBTree()
    tree.insert(7, -5)
    proof = tree.aggregate_query(0, 100)
    assert read_aggregate(proof) == Aggregate(count=1, total=-5, minimum=-5, maximum=-5)
    assert open_aggregate(tree.root, proof) == read_aggregate(proof)


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
    assert open_aggregate(tree.root, tree.aggregate_query(100, 5000)).count == 3997
