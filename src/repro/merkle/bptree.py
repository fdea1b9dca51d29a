"""The one authenticated B+-tree engine behind the MB-tree and the
aggregate tree.

DCert's query layer is "an MPT over authenticated B+-trees" (§5.4,
Fig. 5; aggregations per §5.1).  Both flavours are the same tree — sorted
leaves, internal nodes that authenticate each child's digest *and* key
range, lazy summaries, insert + split, and a pure proof-based insert
replay for the enclave — and differ only in what a leaf entry and a
child record commit to.  That difference is a :class:`Scheme`; the
engine never asks which one it is serving.

Every node, live or proven, is reduced to one :class:`Summary`.  The
three constructors (:func:`leaf_summary`, :func:`internal_summary`,
:func:`stub_summary`) are the only way to make one, and they validate
while they encode — keys are ``int`` in ``[0, 2^64)`` and strictly
increasing, digests are 32-byte ``bytes``, values and annotations are
whatever the scheme's encoders accept — so a malformed proof fails with
:class:`ProofError`, never with an ``OverflowError`` or ``TypeError``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from repro.crypto.hashing import HASH_SIZE, Digest, hash_concat
from repro.errors import ProofError

DEFAULT_FANOUT = 16
MIN_FANOUT = 4
_FANOUT_LIMIT = 1 << 16  # ``size_bytes`` budgets two bytes for it
_KEY_LIMIT = 1 << 64


class Summary(NamedTuple):
    """What a parent (or the root commitment) needs to know of a node."""

    min_key: int
    max_key: int
    annotation: Any
    digest: Digest
    record: bytes  # this node's entry in its parent's digest preimage


@dataclass(frozen=True, slots=True)
class Scheme:
    """What one tree flavour commits to, and the shape of its proofs."""

    leaf_tag: bytes
    internal_tag: bytes
    empty_root: Digest
    commit: Callable[[Any], Any]  # stored value -> what its leaf entry commits to
    encode_entry: Callable[[Any], bytes]  # committed value -> bytes, or ProofError
    annotate_leaf: Callable[[list], Any]  # committed values of one leaf -> annotation
    merge: Callable[[list], Any]  # child annotations -> annotation
    encode_annotation: Callable[[Any], bytes]  # annotation -> bytes, or ProofError
    stub: type
    to_stub: Callable[[Summary], Any]
    stub_annotation: Callable[[Any], Any]
    opened_leaf: type  # (entries)
    opened_internal: type  # (children, taken)
    insert_proof: type  # (key, fanout, path)


def check_int(value: object, low: int, high: int, what: str) -> int:
    """``value`` if it is an ``int`` (not a bool) in ``[low, high)``."""
    if type(value) is not int or not low <= value < high:
        raise ProofError(f"{what} is not an integer in its encoded range")
    return value


def check_digest(value: object) -> Digest:
    if type(value) is not bytes or len(value) != HASH_SIZE:
        raise ProofError("digest is not 32 bytes")
    return value


def _summary(
    scheme: Scheme, min_key: int, max_key: int, annotation: Any, digest: Digest
) -> Summary:
    """Encode the record; the keys and digest are already known good."""
    record = (
        min_key.to_bytes(8, "big")
        + max_key.to_bytes(8, "big")
        + scheme.encode_annotation(annotation)
        + digest
    )
    return Summary(min_key, max_key, annotation, digest, record)


def leaf_summary(scheme: Scheme, entries: Sequence[tuple[int, Any]]) -> Summary:
    """Summarise a leaf given as sorted ``(key, committed value)`` pairs."""
    if not entries:
        raise ProofError("opened leaf with no entries")
    encode_entry = scheme.encode_entry
    parts = [scheme.leaf_tag]
    values = []
    previous = -1
    for key, committed in entries:
        if type(key) is not int or not previous < key < _KEY_LIMIT:
            raise ProofError("leaf keys are not increasing integers in [0, 2^64)")
        previous = key
        parts.append(key.to_bytes(8, "big") + encode_entry(committed))
        values.append(committed)
    annotation = scheme.annotate_leaf(values)
    return _summary(scheme, entries[0][0], previous, annotation, hash_concat(*parts))


def internal_summary(scheme: Scheme, children: Sequence[Summary]) -> Summary:
    """Summarise an internal node from its children's summaries, in order."""
    if not children:
        raise ProofError("opened internal node with no children")
    previous_max = -1
    for child in children:
        if child.min_key <= previous_max:
            raise ProofError("children key ranges out of order")
        previous_max = child.max_key
    return _summary(
        scheme,
        children[0].min_key,
        previous_max,
        scheme.merge([child.annotation for child in children]),
        hash_concat(scheme.internal_tag, *[child.record for child in children]),
    )


def stub_summary(scheme: Scheme, stub: object) -> Summary:
    """Take a pruned subtree's claimed summary (its parent's digest vouches)."""
    if not isinstance(stub, scheme.stub):
        raise ProofError("pruned subtree of the wrong proof type")
    min_key, max_key = stub.min_key, stub.max_key
    if (
        type(min_key) is not int
        or type(max_key) is not int
        or not 0 <= min_key <= max_key < _KEY_LIMIT
    ):
        raise ProofError("stub keys are not an integer range within [0, 2^64)")
    annotation = scheme.stub_annotation(stub)
    return _summary(scheme, min_key, max_key, annotation, check_digest(stub.digest))


def open_proof(scheme: Scheme, root: Digest, proof, verify_node, read):
    """Verify, then read: ``read(proof)`` once the range proof opens to
    ``root`` by ``verify_node``'s summaries, or :class:`ProofError`."""
    if proof.root_opening is None:
        if root != scheme.empty_root:
            raise ProofError("an empty-tree proof under a non-empty root")
    elif isinstance(proof.root_opening, scheme.stub):
        raise ProofError("a root stub vouches for its own summary")
    elif verify_node(proof.root_opening, proof.lo, proof.hi).digest != root:
        raise ProofError("range proof does not open to the root")
    return read(proof)


def _descend_choice(mins: list[int], key: int) -> int:
    """The child an insert or lookup of ``key`` descends into: the last
    one whose (increasing) minimum is not beyond ``key``, else the first."""
    return max(bisect_right(mins, key) - 1, 0)


def _put(entries: list, key: int, payload: Any) -> bool:
    """Insert or overwrite ``key`` in a sorted leaf; True when it is new."""
    for index, (entry_key, _) in enumerate(entries):
        if entry_key == key:
            entries[index] = (key, payload)
            return False
        if entry_key > key:
            entries.insert(index, (key, payload))
            return True
    entries.append((key, payload))
    return True


def _split(items: list, fanout: int) -> list[list]:
    """``items`` as one node, or as two halves once it overflows."""
    if len(items) <= fanout:
        return [items]
    half = len(items) // 2
    return [items[:half], items[half:]]


class _Node:
    __slots__ = ("leaf", "items", "cached")

    def __init__(self, leaf: bool, items: list) -> None:
        self.leaf = leaf
        self.items = items  # sorted (key, value) pairs, or child nodes
        self.cached: Summary | None = None

    @property
    def min_key(self) -> int:
        node = self
        while not node.leaf:
            node = node.items[0]
        return node.items[0][0]


class BPlusTree:
    """Mutable authenticated B+-tree; subclasses bind ``scheme`` and add
    their query side."""

    scheme: Scheme

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < MIN_FANOUT:
            raise ValueError("fanout must be at least 4")
        self.fanout = fanout
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> Digest:
        if self._root is None:
            return self.scheme.empty_root
        return self.summary(self._root).digest

    def summary(self, node: _Node) -> Summary:
        """The node's summary, recomputed only below an insert path."""
        if node.cached is None:
            if node.leaf:
                node.cached = leaf_summary(
                    self.scheme,
                    [(key, self.scheme.commit(value)) for key, value in node.items],
                )
            else:
                node.cached = internal_summary(
                    self.scheme, [self.summary(child) for child in node.items]
                )
        return node.cached

    def get(self, key: int) -> Any:
        node = self._root
        if node is None:
            return None
        while not node.leaf:
            node = node.items[_descend_choice([c.min_key for c in node.items], key)]
        return dict(node.items).get(key)

    def insert(self, key: int, value: Any) -> None:
        """Insert ``key -> value`` (overwrites an equal key)."""
        if self._root is None:
            self._root = _Node(True, [])
        sibling = self._insert(self._root, key, value)
        if sibling is not None:
            self._root = _Node(False, [self._root, sibling])

    def _insert(self, node: _Node, key: int, value: Any) -> _Node | None:
        """Insert under ``node``; returns the new right sibling on split."""
        node.cached = None
        if node.leaf:
            self._size += _put(node.items, key, value)
        else:
            taken = _descend_choice([c.min_key for c in node.items], key)
            sibling = self._insert(node.items[taken], key, value)
            if sibling is None:
                return None
            node.items.insert(taken + 1, sibling)
        node.items, *overflow = _split(node.items, self.fanout)
        return _Node(node.leaf, overflow[0]) if overflow else None

    def prove_insert(self, key: int) -> Any:
        """Open the descent path ``insert(key)`` would take: every
        off-path child as an authenticated stub, the landing leaf in full."""
        scheme = self.scheme
        path: list = []
        node = self._root
        while node is not None:
            if node.leaf:
                entries = tuple((k, scheme.commit(value)) for k, value in node.items)
                path.append(scheme.opened_leaf(entries=entries))
                break
            summaries = [self.summary(child) for child in node.items]
            taken = _descend_choice([s.min_key for s in summaries], key)
            stubs = tuple(scheme.to_stub(s) for s in summaries)
            path.append(scheme.opened_internal(children=stubs, taken=taken))
            node = node.items[taken]
        return scheme.insert_proof(key=key, fanout=self.fanout, path=tuple(path))


def apply_insert(
    scheme: Scheme, old_root: Digest, key: int, value: Any, proof: Any
) -> Digest:
    """Pure function: the root after ``insert(key, value)``.

    DCert's enclave must check that an index was updated correctly
    *without holding the index* (Alg. 4 lines 9-10 / Alg. 5 lines 12-13).
    The opened path is verified bottom-up against ``old_root`` — and to be
    exactly the path the insert descends — then the insert is replayed on
    it, cascading splits included, which only ever touch opened nodes.
    Raises :class:`ProofError` on any inconsistency.
    """
    if not isinstance(proof, scheme.insert_proof) or proof.key != key:
        raise ProofError("insert proof is not an opening for this key")
    fanout = check_int(proof.fanout, MIN_FANOUT, _FANOUT_LIMIT, "fanout")
    committed = scheme.commit(value)
    if not proof.path:
        if old_root != scheme.empty_root:
            raise ProofError("non-empty tree needs an opened insert path")
        return leaf_summary(scheme, [(key, committed)]).digest

    *internals, leaf = proof.path
    if not isinstance(leaf, scheme.opened_leaf):
        raise ProofError("insert path must end at a leaf")
    entries = list(leaf.entries)
    below = leaf_summary(scheme, entries)
    levels: list[tuple[list[Summary], int]] = []  # bottom-up
    for node in reversed(internals):
        if not isinstance(node, scheme.opened_internal):
            raise ProofError("leaf opening must terminate the path")
        children = [stub_summary(scheme, stub) for stub in node.children]
        taken = check_int(node.taken, 0, len(children), "taken child")
        if children[taken] != below:
            raise ProofError("taken child does not match next opening")
        below = internal_summary(scheme, children)
        if taken != _descend_choice([child.min_key for child in children], key):
            raise ProofError("opened path is not the insert descent path")
        levels.append((children, taken))
    if below.digest != old_root:
        raise ProofError("insert proof does not verify against the root")

    # Replay bottom-up; each level hands one or two nodes to its parent.
    _put(entries, key, committed)
    carry = [leaf_summary(scheme, part) for part in _split(entries, fanout)]
    for children, taken in levels:
        children[taken : taken + 1] = carry
        carry = [internal_summary(scheme, part) for part in _split(children, fanout)]
    if len(carry) == 2:  # root split: a fresh root adopts both halves
        return internal_summary(scheme, carry).digest
    return carry[0].digest
