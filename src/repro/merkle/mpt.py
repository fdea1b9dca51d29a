"""Merkle Patricia Trie with (non-)membership proofs.

The two-level historical-query index of §5.4 (Fig. 5) uses an MPT as its
upper level: account addresses are the keys, and each value is the root
digest of that account's lower-level version tree.  The Merkle inverted
index reuses it as the keyword dictionary.

Keys are navigated nibble-by-nibble.  Three node kinds exist — leaf,
extension, and 16-way branch — mirroring Ethereum's trie, though node
encoding/hashing here is the library's own domain-separated scheme
rather than RLP.  Inserts rebuild only the nodes along the touched path
(functional style), so digests never go stale.

Proofs are a top-down list of *steps*; two step kinds are terminal
(a branch the key ends on, or an extension the key diverges from) and
may only appear last.  Non-membership is proven by exhibiting where the
search fails: an empty branch slot, a diverging extension, or a leaf for
a different key.

One engine serves the live trie and proof replay.  A proof is *opened*
once (:func:`_open`): every prover-chosen field is validated there and
the path it describes is rebuilt as ordinary nodes whose unopened
children are bare 32-byte digests.  From then on the proven path is
searched and updated by the functions the live trie uses
(:func:`_search`, :func:`_insert`), so what a proof *claims* and what it
*hashes to* are read from the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_concat, sha256
from repro.errors import ProofError
from repro.merkle.bptree import check_digest, check_int

#: Digest standing in for an absent child / empty trie.
EMPTY_DIGEST: Digest = sha256(b"repro-mpt-empty")

_Nibbles = tuple[int, ...]


def _to_nibbles(key: bytes) -> _Nibbles:
    nibbles: list[int] = []
    for byte in key:
        nibbles.append(byte >> 4)
        nibbles.append(byte & 0xF)
    return tuple(nibbles)


def _common_prefix(a: _Nibbles, b: _Nibbles) -> int:
    for length, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return length
    return min(len(a), len(b))


def _digest_of(child: "_Child") -> Digest:
    if child is None:
        return EMPTY_DIGEST
    return child if type(child) is bytes else child.digest()


@dataclass(frozen=True, slots=True)
class _Leaf:
    path: _Nibbles
    value: bytes

    def digest(self) -> Digest:
        return hash_concat(b"mpt-leaf", bytes(self.path), self.value)


@dataclass(frozen=True, slots=True)
class _Extension:
    path: _Nibbles
    child: "_Branch | Digest"  # a digest: the unopened child of a diverged step

    def digest(self) -> Digest:
        return hash_concat(b"mpt-ext", bytes(self.path), _digest_of(self.child))


class _Branch:
    """16-way branch; the digest is cached since children are immutable."""

    __slots__ = ("children", "value", "_digest")

    def __init__(self, children: list["_Child"], value: bytes | None) -> None:
        self.children = children
        self.value = value
        self._digest: Digest | None = None

    def child_digests(self) -> list[Digest]:
        return [_digest_of(child) for child in self.children]

    def digest(self) -> Digest:
        if self._digest is None:
            self._digest = hash_concat(
                b"mpt-branch", *self.child_digests(), self.value or b""
            )
        return self._digest


_Node = _Leaf | _Extension | _Branch
#: What a branch slot (or the trie root) holds: a node, nothing, or — on
#: a path rebuilt from a proof — the bare digest of a subtree not opened.
_Child = _Node | Digest | None


# -- the engine: one search, one insert ---------------------------------------


def _search(node: _Child, path: _Nibbles) -> tuple[bytes | None, int]:
    """``(value stored under path or None, slots looked into)``.

    The count includes the root slot and an empty slot the search falls
    off; :func:`_open` uses it to hold a proof to exactly the search
    path.  Stepping into an unopened subtree raises :class:`ProofError`.
    """
    depth = 1
    while node is not None:
        kind = type(node)
        if kind is _Leaf:
            return (node.value if node.path == path else None), depth
        if kind is _Extension:
            if path[: len(node.path)] != node.path:
                return None, depth
            node, path = node.child, path[len(node.path) :]
        elif kind is _Branch:
            if not path:
                return node.value, depth
            node, path = node.children[path[0]], path[1:]
        else:
            raise ProofError("MPT proof does not open the searched path")
        depth += 1
    return None, depth


def _insert(node: _Child, path: _Nibbles, value: bytes) -> _Node:
    """The node replacing ``node`` once ``path`` maps to ``value``."""
    if not value:
        raise ValueError("an MPT value is non-empty (empty hashes as absent)")
    if node is None:
        return _Leaf(path, value)
    kind = type(node)
    if kind is _Branch:
        children = list(node.children)
        if not path:
            return _Branch(children, value)
        children[path[0]] = _insert(children[path[0]], path[1:], value)
        return _Branch(children, node.value)
    if kind is not _Leaf and kind is not _Extension:
        raise ProofError("MPT proof does not open the insert path")
    shared = _common_prefix(node.path, path)
    rest = node.path[shared:]  # what the old node keeps below the fork
    children = [None] * 16
    branch_value: bytes | None = None
    if kind is _Leaf:
        if node.path == path:
            return _Leaf(path, value)
        if rest:
            children[rest[0]] = _Leaf(rest[1:], node.value)
        else:
            branch_value = node.value
    elif not rest:
        return _Extension(node.path, _insert(node.child, path[shared:], value))
    else:
        children[rest[0]] = (
            _Extension(rest[1:], node.child) if rest[1:] else node.child
        )
    if shared == len(path):
        branch_value = value
    else:
        children[path[shared]] = _Leaf(path[shared + 1 :], value)
    branch = _Branch(children, branch_value)
    return _Extension(path[:shared], branch) if shared else branch


# -- proof steps -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BranchStep:
    """A branch the search descended through (non-terminal)."""

    taken: int
    sibling_digests: tuple[Digest, ...]  # the other 15 children, in order
    value: bytes | None


@dataclass(frozen=True, slots=True)
class TerminalBranchStep:
    """A branch the key ends exactly on (terminal)."""

    child_digests: tuple[Digest, ...]  # all 16
    value: bytes | None


@dataclass(frozen=True, slots=True)
class ExtensionStep:
    """An extension whose compressed path the key follows (non-terminal)."""

    path: _Nibbles


@dataclass(frozen=True, slots=True)
class DivergedExtensionStep:
    """An extension whose compressed path the key diverges from (terminal)."""

    path: _Nibbles
    child_digest: Digest


_Step = BranchStep | TerminalBranchStep | ExtensionStep | DivergedExtensionStep


@dataclass(frozen=True, slots=True)
class MPTProof:
    """(Non-)membership proof for one key: the search path, top-down."""

    key: bytes
    steps: tuple[_Step, ...]
    terminal_leaf: tuple[_Nibbles, bytes] | None

    def size_bytes(self) -> int:
        total = len(self.key)
        for step in self.steps:
            if isinstance(step, BranchStep):
                total += 1 + 32 * 15 + (len(step.value) if step.value else 0)
            elif isinstance(step, TerminalBranchStep):
                total += 32 * 16 + (len(step.value) if step.value else 0)
            elif isinstance(step, ExtensionStep):
                total += len(step.path)
            else:
                total += len(step.path) + 32
        if self.terminal_leaf is not None:
            total += len(self.terminal_leaf[0]) + len(self.terminal_leaf[1])
        return total


class MerklePatriciaTrie:
    """Mutable MPT mapping byte keys to non-empty byte values."""

    def __init__(self) -> None:
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> Digest:
        return _digest_of(self._root)

    def get(self, key: bytes) -> bytes | None:
        return _search(self._root, _to_nibbles(key))[0]

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        root = _insert(self._root, _to_nibbles(key), value)
        if self.get(key) is None:
            self._size += 1
        self._root = root

    def prove(self, key: bytes) -> MPTProof:
        """Build a (non-)membership proof for ``key``."""
        steps: list[_Step] = []
        node = self._root
        path = _to_nibbles(key)
        terminal: tuple[_Nibbles, bytes] | None = None
        while node is not None:
            if isinstance(node, _Leaf):
                terminal = (node.path, node.value)
                break
            if isinstance(node, _Extension):
                if path[: len(node.path)] != node.path:
                    steps.append(
                        DivergedExtensionStep(node.path, node.child.digest())
                    )
                    break
                steps.append(ExtensionStep(node.path))
                path = path[len(node.path) :]
                node = node.child
                continue
            if not path:
                steps.append(
                    TerminalBranchStep(tuple(node.child_digests()), node.value)
                )
                break
            taken, digests = path[0], node.child_digests()
            siblings = tuple(digests[:taken] + digests[taken + 1 :])
            steps.append(BranchStep(taken, siblings, node.value))
            node, path = node.children[taken], path[1:]
        return MPTProof(key=key, steps=tuple(steps), terminal_leaf=terminal)


# -- proofs: opened once, then searched and updated like the live trie --------
#
# The enclave recomputes the *new* upper-level root from a (non-)membership
# proof alone: every case of an insert only touches nodes the proof opens.

_MALFORMED = "malformed MPT proof"


def _nibble_path(path: object, least: int) -> _Nibbles:
    if type(path) is not tuple or len(path) < least:
        raise ProofError(_MALFORMED)
    for nibble in path:
        check_int(nibble, 0, 16, "nibble")
    return path


def _digests(digests: object, count: int) -> list[Digest]:
    if type(digests) is not tuple or len(digests) != count:
        raise ProofError(_MALFORMED)
    return [check_digest(digest) for digest in digests]


def _value(value: object) -> bytes | None:
    """``None`` or non-empty ``bytes``: ``b""`` would be a second spelling
    of "absent" on a branch (it hashes as ``None`` does)."""
    if value is not None and (type(value) is not bytes or not value):
        raise ProofError(_MALFORMED)
    return value


def _open(key: bytes, proof: MPTProof) -> tuple[_Child, bytes | None]:
    """``(the search path ``proof`` opens for ``key``, the value it claims)``.

    The one place a proof is read: every prover-chosen field is checked
    by exact type, the steps are rebuilt bottom-up as ordinary nodes
    (siblings stay bare digests), and the rebuilt path must be exactly
    what :func:`_search` walks for ``key`` — every step, then the leaf or
    the empty slot — so each (trie, key) fact has one accepted proof, the
    one :meth:`MerklePatriciaTrie.prove` emits.  Raises
    :class:`ProofError` otherwise.  Nothing here knows a root: callers
    compare ``_digest_of(node)`` with the one they trust.
    """
    if (
        type(proof) is not MPTProof
        or type(key) is not bytes
        or type(proof.key) is not bytes
        or proof.key != key
        or type(proof.steps) is not tuple
    ):
        raise ProofError(_MALFORMED)
    node: _Child = None
    leaf = proof.terminal_leaf
    if leaf is not None:
        if type(leaf) is not tuple or len(leaf) != 2 or leaf[1] is None:
            raise ProofError(_MALFORMED)
        node = _Leaf(_nibble_path(leaf[0], 0), _value(leaf[1]))
    # A terminal step ends the search; any other is followed by one more
    # slot, holding the leaf or nothing.
    slots = len(proof.steps) + 1
    for step in reversed(proof.steps):
        kind = type(step)
        if kind is BranchStep:
            children: list[_Child] = _digests(step.sibling_digests, 15)
            children.insert(check_int(step.taken, 0, 16, "taken child"), node)
            node = _Branch(children, _value(step.value))
        elif kind is ExtensionStep and type(node) is _Branch:
            node = _Extension(_nibble_path(step.path, 1), node)
        elif kind is TerminalBranchStep and node is None:
            # ``node is None`` only before the first step read, and only
            # without a leaf: terminal kinds come last and alone.
            node = _Branch(_digests(step.child_digests, 16), _value(step.value))
            slots -= 1
        elif kind is DivergedExtensionStep and node is None:
            child = check_digest(step.child_digest)
            node = _Extension(_nibble_path(step.path, 1), child)
            slots -= 1
        else:
            raise ProofError(_MALFORMED)
    claimed, visited = _search(node, _to_nibbles(key))
    if visited != slots:
        raise ProofError("MPT proof is not the search path of its key")
    return node, claimed


def verify_mpt(root: Digest, key: bytes, value: bytes | None, proof: MPTProof) -> bool:
    """Verify an :class:`MPTProof` for ``key -> value`` (``None`` = absent)."""
    try:
        node, claimed = _open(key, proof)
    except ProofError:
        return False
    return claimed == value and _digest_of(node) == root


def claimed_value(key: bytes, proof: MPTProof) -> bytes | None:
    """The value a well-formed proof claims for ``key`` (None = absent);
    :class:`ProofError` on a malformed one.  Only meaningful once the
    proof is checked against a trusted root (:class:`ProvenPath`)."""
    return _open(key, proof)[1]


class ProvenPath:
    """The search path of one key, opened from a proof that verified
    against ``root`` (:class:`ProofError` otherwise): ``value`` is what
    the trie under ``root`` holds for ``key`` (``None`` = absent)."""

    __slots__ = ("_node", "_path", "value")

    def __init__(self, root: Digest, key: bytes, proof: MPTProof) -> None:
        self._node, self.value = _open(key, proof)
        if _digest_of(self._node) != root:
            raise ProofError("MPT proof does not verify against the root")
        self._path = _to_nibbles(key)

    def updated(self, value: bytes) -> Digest:
        """The trie's root after ``insert(key, value)``."""
        return _insert(self._node, self._path, value).digest()


def apply_update(root: Digest, key: bytes, value: bytes, proof: MPTProof) -> Digest:
    """Pure function: the MPT root after ``insert(key, value)``.

    ``proof`` must be the (non-)membership proof for ``key`` against
    ``root`` (whatever old value it proves); raises :class:`ProofError`
    otherwise.  Open, check the digest, then the live trie's insert.
    """
    return ProvenPath(root, key, proof).updated(value)
