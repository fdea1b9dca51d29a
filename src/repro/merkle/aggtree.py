"""Aggregate-authenticated MB-tree for verifiable aggregation queries.

§5.1 of the paper notes DCert supports "complex queries such as
aggregations [32]" whenever an authenticated query-processing scheme
exists.  This module supplies that scheme: an MB-tree whose every node
additionally authenticates the (count, sum, min, max) aggregate of its
subtree, folded into the node digest.  A ``SUM/COUNT/MIN/MAX/AVG`` over
a key window then needs to *open* only the two boundary paths — fully
covered subtrees contribute their authenticated aggregate directly —
so the proof is O(fanout * depth) no matter how wide the window is, and
so is the work: every node caches its aggregate with its digest.

Keys are unsigned integers (timestamps); values are signed integers
(balances, amounts).  The tree itself — nodes, insert + split, insert
proofs and their replay — is :mod:`repro.merkle.bptree` run on
:data:`SCHEME`, the same engine as :mod:`repro.merkle.mbtree`; this
module adds the aggregate-query side and the proof types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

from repro.crypto.hashing import Digest, sha256
from repro.errors import ProofError
from repro.merkle import bptree

#: Root committed by an empty tree.
EMPTY_ROOT: Digest = sha256(b"repro-aggtree-empty")

_COUNT_LIMIT = 1 << 64
_VALUE_LIMIT = 1 << 127  # values, sums and extrema are signed 128-bit


@dataclass(frozen=True, slots=True)
class Aggregate:
    """The authenticated summary of a key set."""

    count: int
    total: int
    minimum: int
    maximum: int

    @classmethod
    def of_value(cls, value: int) -> "Aggregate":
        return cls(count=1, total=value, minimum=value, maximum=value)

    def merge(self, other: "Aggregate") -> "Aggregate":
        return Aggregate(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    def encode(self) -> bytes:
        """The 56 bytes a parent commits to; :class:`ProofError` when a
        field is not an integer inside its width or the count is not
        positive (no subtree is empty)."""
        count = bptree.check_int(self.count, 1, _COUNT_LIMIT, "count")
        return (
            count.to_bytes(8, "big")
            + _value_bytes(self.total)
            + _value_bytes(self.minimum)
            + _value_bytes(self.maximum)
        )


def _value_bytes(value: object) -> bytes:
    checked = bptree.check_int(value, -_VALUE_LIMIT, _VALUE_LIMIT, "value")
    return checked.to_bytes(16, "big", signed=True)


def _encode_aggregate(aggregate: object) -> bytes:
    if not isinstance(aggregate, Aggregate):
        raise ProofError("subtree annotation is not an aggregate")
    return aggregate.encode()


def _merge_many(aggregates: list[Aggregate]) -> Aggregate | None:
    return reduce(Aggregate.merge, aggregates) if aggregates else None


# -- aggregate query proofs ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class AggStub:
    """A subtree summarized by its authenticated range + aggregate."""

    min_key: int
    max_key: int
    aggregate: Aggregate
    digest: Digest


@dataclass(frozen=True, slots=True)
class AggLeafOpening:
    """A boundary leaf, fully listed (keys and integer values)."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class AggInternalOpening:
    """An internal node on a boundary path."""

    children: tuple["AggInternalOpening | AggLeafOpening | AggStub", ...]


_AggProofNode = AggInternalOpening | AggLeafOpening | AggStub


@dataclass(frozen=True, slots=True)
class AggRangeProof:
    """Proof for an aggregate over ``[lo, hi]``."""

    lo: int
    hi: int
    root_opening: _AggProofNode | None  # None: empty tree

    def size_bytes(self) -> int:
        return 16 + _agg_node_size(self.root_opening)


def _agg_node_size(node: _AggProofNode | None) -> int:
    if node is None:
        return 0
    if isinstance(node, AggStub):
        return 8 + 8 + 56 + 32
    if isinstance(node, AggLeafOpening):
        return len(node.entries) * (8 + 16)
    return sum(_agg_node_size(child) for child in node.children)


# -- insert proofs (opened by the engine, replayed inside the enclave) -------


@dataclass(frozen=True, slots=True)
class AggOpenedInternal:
    """An internal node on the insert path: all children as stubs."""

    children: tuple[AggStub, ...]
    taken: int


@dataclass(frozen=True, slots=True)
class AggOpenedLeaf:
    """The leaf the insert lands in: full (key, value) entries."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class AggInsertProof:
    """Opening of the insert descent path for one key."""

    key: int
    fanout: int
    path: tuple[AggOpenedInternal | AggOpenedLeaf, ...]

    def size_bytes(self) -> int:
        total = 8 + 2
        for node in self.path:
            if isinstance(node, AggOpenedInternal):
                total += 2 + len(node.children) * (8 + 8 + 56 + 32)
            else:
                total += len(node.entries) * (8 + 16)
        return total


#: The aggregate tree: a leaf entry commits to the integer value itself,
#: a child record additionally to the subtree's :class:`Aggregate`.
SCHEME = bptree.Scheme(
    leaf_tag=b"agg-leaf",
    internal_tag=b"agg-int",
    empty_root=EMPTY_ROOT,
    commit=lambda value: value,
    encode_entry=_value_bytes,
    annotate_leaf=lambda values: _merge_many([Aggregate.of_value(v) for v in values]),
    merge=_merge_many,
    encode_annotation=_encode_aggregate,
    stub=AggStub,
    to_stub=lambda s: AggStub(s.min_key, s.max_key, s.annotation, s.digest),
    stub_annotation=attrgetter("aggregate"),
    opened_leaf=AggOpenedLeaf,
    opened_internal=AggOpenedInternal,
    insert_proof=AggInsertProof,
)


class AggregateMBTree(bptree.BPlusTree):
    """MB-tree with authenticated per-node aggregates."""

    scheme = SCHEME

    def aggregate_query(self, lo: int, hi: int) -> tuple[Aggregate | None, AggRangeProof]:
        """The aggregate of all keys in ``[lo, hi]``, plus its proof.

        Returns ``None`` as the aggregate when the window is empty.
        """
        if lo > hi:
            raise ProofError("empty range: lo > hi")
        if self._root is None:
            return None, AggRangeProof(lo=lo, hi=hi, root_opening=None)
        collected: list[Aggregate] = []
        opening = self._open(self._root, lo, hi, collected)
        return _merge_many(collected), AggRangeProof(lo=lo, hi=hi, root_opening=opening)

    def _open(
        self, node: bptree._Node, lo: int, hi: int, collected: list[Aggregate]
    ) -> _AggProofNode:
        if node.leaf:
            in_range = [value for key, value in node.items if lo <= key <= hi]
            if in_range:
                collected.append(SCHEME.annotate_leaf(in_range))
            return AggLeafOpening(entries=tuple(node.items))
        children: list[_AggProofNode] = []
        for child in node.items:
            summary = self.summary(child)
            covered = lo <= summary.min_key and summary.max_key <= hi
            if covered or summary.max_key < lo or summary.min_key > hi:
                if covered:  # the stub's aggregate is the whole contribution
                    collected.append(summary.annotation)
                children.append(SCHEME.to_stub(summary))
            else:
                children.append(self._open(child, lo, hi, collected))
        return AggInternalOpening(children=tuple(children))


def _verify_node(
    node: _AggProofNode, lo: int, hi: int, collected: list[Aggregate]
) -> bptree.Summary:
    """Recompute a proof node's summary, collecting in-range
    contributions and raising on inconsistency."""
    if isinstance(node, AggStub):
        summary = bptree.stub_summary(SCHEME, node)
        if lo <= summary.min_key and summary.max_key <= hi:
            collected.append(summary.annotation)
        elif not (summary.max_key < lo or summary.min_key > hi):
            raise ProofError("partially overlapping subtree left unopened")
        return summary
    if isinstance(node, AggLeafOpening):
        summary = bptree.leaf_summary(SCHEME, node.entries)
        in_range = [value for key, value in node.entries if lo <= key <= hi]
        if in_range:
            collected.append(SCHEME.annotate_leaf(in_range))
        return summary
    if not isinstance(node, AggInternalOpening):
        raise ProofError("unknown aggregate-proof node")
    return bptree.internal_summary(
        SCHEME, [_verify_node(child, lo, hi, collected) for child in node.children]
    )


def verify_aggregate(
    root: Digest, result: Aggregate | None, proof: AggRangeProof
) -> bool:
    """Verify that ``result`` is the exact aggregate of ``[lo, hi]``."""
    if proof.root_opening is None:
        return root == EMPTY_ROOT and result is None
    if isinstance(proof.root_opening, AggStub):
        return False  # nothing above the root vouches for a claimed summary
    collected: list[Aggregate] = []
    try:
        summary = _verify_node(proof.root_opening, proof.lo, proof.hi, collected)
    except ProofError:
        return False
    return summary.digest == root and _merge_many(collected) == result


def apply_insert(old_root: Digest, key: int, value: int, proof: AggInsertProof) -> Digest:
    """Pure function: the tree root after ``insert(key, value)``; see
    :func:`repro.merkle.bptree.apply_insert`."""
    return bptree.apply_insert(SCHEME, old_root, key, value, proof)
