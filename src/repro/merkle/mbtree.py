"""Merkle B-tree (MB-tree) with authenticated range queries.

This follows Li et al.'s dynamic authenticated index (SIGMOD'06), which
the paper uses as the lower level of its two-level historical-query
index (§5.4, Fig. 5): a B+-tree whose every node is augmented with a
digest.  Internal nodes authenticate, per child, the child's digest
*and* its key range, which is what makes range-query **completeness**
verifiable — a stubbed-out subtree carries its authenticated [min, max]
and the verifier checks it cannot overlap the query window.

Keys are unsigned integers (timestamps / block heights / tx numbers);
values are byte strings.  Leaf digests fold in ``H(value)`` rather than
the value so that out-of-range boundary entries can be proven without
shipping their payloads.

The tree itself — nodes, insert + split, insert proofs and their replay
— is :mod:`repro.merkle.bptree` run on :data:`SCHEME`; this module adds
the range-query side and the proof types.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, sha256
from repro.errors import ProofError
from repro.merkle import bptree

#: Root committed by an empty MB-tree.
EMPTY_ROOT: Digest = sha256(b"repro-mbtree-empty")


# -- proof structure -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LeafOpening:
    """An opened leaf: every entry, payloads only for in-range keys."""

    entries: tuple[tuple[int, bytes | None, Digest | None], ...]
    # Each entry is (key, value, None) when in range and the payload is
    # shipped, or (key, None, value_digest) for out-of-range boundaries.


@dataclass(frozen=True, slots=True)
class SubtreeStub:
    """A pruned subtree: its authenticated range and digest."""

    min_key: int
    max_key: int
    digest: Digest


@dataclass(frozen=True, slots=True)
class InternalOpening:
    """An opened internal node: each child opened or stubbed, in order."""

    children: tuple["InternalOpening | LeafOpening | SubtreeStub", ...]


_ProofNode = InternalOpening | LeafOpening | SubtreeStub


@dataclass(frozen=True, slots=True)
class MBRangeProof:
    """Authenticated answer to a range query ``[lo, hi]``."""

    lo: int
    hi: int
    root_opening: _ProofNode | None  # None proves the tree is empty

    def size_bytes(self) -> int:
        return 16 + _proof_node_size(self.root_opening)


def _proof_node_size(node: _ProofNode | None) -> int:
    if node is None:
        return 0
    if isinstance(node, SubtreeStub):
        return 8 + 8 + 32
    if isinstance(node, LeafOpening):
        total = 0
        for key, value, value_digest in node.entries:
            total += 8 + (len(value) if value is not None else 32)
        return total
    return sum(_proof_node_size(child) for child in node.children)


# -- insert proofs (opened by the engine, replayed inside the enclave) ------


@dataclass(frozen=True, slots=True)
class OpenedInternal:
    """An internal node on the insert path: all children as stubs."""

    children: tuple[SubtreeStub, ...]
    taken: int


@dataclass(frozen=True, slots=True)
class OpenedLeaf:
    """The leaf the insert lands in: full entries with value digests."""

    entries: tuple[tuple[int, Digest], ...]


@dataclass(frozen=True, slots=True)
class MBInsertProof:
    """Opening of the insert descent path for one key."""

    key: int
    fanout: int
    path: tuple[OpenedInternal | OpenedLeaf, ...]  # empty for an empty tree

    def size_bytes(self) -> int:
        total = 8 + 2
        for node in self.path:
            if isinstance(node, OpenedInternal):
                total += 2 + len(node.children) * (8 + 8 + 32)
            else:
                total += len(node.entries) * (8 + 32)
        return total


def _commit(value: object) -> Digest:
    if not isinstance(value, bytes):
        raise ProofError("MB-tree values are byte strings")
    return sha256(value)


#: The MB-tree: a leaf entry commits to ``H(value)``, a child record to
#: nothing beyond its key range and digest.
SCHEME = bptree.Scheme(
    leaf_tag=b"mb-leaf",
    internal_tag=b"mb-int",
    empty_root=EMPTY_ROOT,
    commit=_commit,
    encode_entry=bptree.check_digest,
    annotate_leaf=lambda committed: None,
    merge=lambda annotations: None,
    encode_annotation=lambda annotation: b"",
    stub=SubtreeStub,
    to_stub=lambda s: SubtreeStub(s.min_key, s.max_key, s.digest),
    stub_annotation=lambda stub: None,
    opened_leaf=OpenedLeaf,
    opened_internal=OpenedInternal,
    insert_proof=MBInsertProof,
)


class MerkleBTree(bptree.BPlusTree):
    """Mutable MB-tree over integer keys with verifiable range queries."""

    scheme = SCHEME

    def range_query(self, lo: int, hi: int) -> tuple[list[tuple[int, bytes]], MBRangeProof]:
        """Return all ``(key, value)`` with lo <= key <= hi, plus a proof."""
        if lo > hi:
            raise ProofError("empty range: lo > hi")
        if self._root is None:
            return [], MBRangeProof(lo=lo, hi=hi, root_opening=None)
        results: list[tuple[int, bytes]] = []
        opening = self._open(self._root, lo, hi, results)
        return results, MBRangeProof(lo=lo, hi=hi, root_opening=opening)

    def _open(
        self, node: bptree._Node, lo: int, hi: int, results: list[tuple[int, bytes]]
    ) -> _ProofNode:
        if node.leaf:
            entries: list[tuple[int, bytes | None, Digest | None]] = []
            for key, value in node.items:
                if lo <= key <= hi:
                    results.append((key, value))
                    entries.append((key, value, None))
                else:
                    entries.append((key, None, sha256(value)))
            return LeafOpening(entries=tuple(entries))
        children: list[_ProofNode] = []
        for child in node.items:
            summary = self.summary(child)
            if summary.max_key < lo or summary.min_key > hi:
                children.append(SCHEME.to_stub(summary))
            else:
                children.append(self._open(child, lo, hi, results))
        return InternalOpening(children=tuple(children))


def _verify_node(
    node: _ProofNode, lo: int, hi: int, collected: list[tuple[int, bytes]]
) -> bptree.Summary:
    """Recompute a proof node's summary, collecting in-range results and
    raising on any completeness violation."""
    if isinstance(node, SubtreeStub):
        summary = bptree.stub_summary(SCHEME, node)
        if not (summary.max_key < lo or summary.min_key > hi):
            raise ProofError("pruned subtree overlaps the query range")
        return summary
    if isinstance(node, LeafOpening):
        committed: list[tuple[int, Digest | None]] = []
        for key, value, value_digest in node.entries:
            if type(key) is not int:  # its range and order: leaf_summary
                raise ProofError("leaf key is not an integer")
            if lo <= key <= hi:
                if value is None:
                    raise ProofError("in-range entry withheld from results")
                collected.append((key, value))
                committed.append((key, _commit(value)))
            else:
                committed.append((key, value_digest))
        return bptree.leaf_summary(SCHEME, committed)
    if not isinstance(node, InternalOpening):
        raise ProofError("unknown range-proof node")
    return bptree.internal_summary(
        SCHEME, [_verify_node(child, lo, hi, collected) for child in node.children]
    )


def verify_range(
    root: Digest, results: list[tuple[int, bytes]], proof: MBRangeProof
) -> bool:
    """Verify that ``results`` is the *complete, correct* answer for the
    proof's range under ``root``."""
    if proof.root_opening is None:
        return root == EMPTY_ROOT and not results
    if isinstance(proof.root_opening, SubtreeStub):
        return False  # nothing above the root vouches for a claimed key range
    collected: list[tuple[int, bytes]] = []
    try:
        summary = _verify_node(proof.root_opening, proof.lo, proof.hi, collected)
    except ProofError:
        return False
    return summary.digest == root and collected == sorted(results)


def apply_insert(
    old_root: Digest, key: int, value: bytes, proof: MBInsertProof
) -> Digest:
    """Pure function: the MB-tree root after ``insert(key, value)``; see
    :func:`repro.merkle.bptree.apply_insert`."""
    return bptree.apply_insert(SCHEME, old_root, key, value, proof)
