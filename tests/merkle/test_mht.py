"""Binary Merkle hash tree: roots, proofs, odd shapes."""

import pytest

from repro.errors import ProofError
from repro.merkle.mht import (
    EMPTY_ROOT,
    MembershipProof,
    MerkleTree,
    verify_membership,
)


def test_empty_tree_has_sentinel_root():
    assert MerkleTree([]).root == EMPTY_ROOT


def test_single_leaf_tree():
    tree = MerkleTree([b"only"])
    assert verify_membership(tree.root, b"only", tree.prove(0))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 13, 16, 33])
def test_all_leaves_provable_at_any_size(size):
    leaves = [b"leaf-%d" % index for index in range(size)]
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        assert verify_membership(tree.root, leaf, tree.prove(index)), (size, index)


def test_proof_rejects_wrong_leaf():
    leaves = [b"a", b"b", b"c"]
    tree = MerkleTree(leaves)
    assert not verify_membership(tree.root, b"x", tree.prove(1))


def test_proof_rejects_wrong_position():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.prove(1)
    moved = MembershipProof(index=2, siblings=proof.siblings)
    assert not verify_membership(tree.root, b"b", moved)


def test_proof_rejects_wrong_root():
    tree_a = MerkleTree([b"a", b"b"])
    tree_b = MerkleTree([b"a", b"c"])
    assert not verify_membership(tree_b.root, b"a", tree_a.prove(0))


def test_distinct_leaf_lists_have_distinct_roots():
    # Promotion (not duplication) of odd nodes: [a, b, b] != [a, b].
    assert MerkleTree([b"a", b"b", b"b"]).root != MerkleTree([b"a", b"b"]).root


def test_order_matters():
    assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root


def test_prove_out_of_range_raises():
    tree = MerkleTree([b"a"])
    with pytest.raises(ProofError):
        tree.prove(1)
    with pytest.raises(ProofError):
        tree.prove(-1)


def test_proof_size_accounting():
    tree = MerkleTree([b"leaf-%d" % index for index in range(16)])
    proof = tree.prove(3)
    assert proof.size_bytes() >= 32 * 4  # four levels of siblings
