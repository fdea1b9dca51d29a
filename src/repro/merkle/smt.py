"""Sparse Merkle tree committing to the blockchain's global state.

The state of the chain (Fig. 1's ``H_state``) is a mapping from 32-byte
keys to byte-string values.  We commit to it with a fixed-depth sparse
Merkle tree: every possible key prefix addresses a node, absent subtrees
hash to a per-level *default digest*, and of the non-default nodes only
branches and one entry per leaf are stored.  This gives

* O(depth) inserts/updates/deletes,
* membership **and non-membership** proofs of the same shape, and
* *compressed* proofs (default siblings are elided with a bitmap), which
  keeps the update proofs shipped into the enclave small — the property
  the stateless-enclave design of §4.1 depends on.

``depth`` is configurable.  The default of 64 bits of path (keys are
hashes, so accidental collisions are negligible at simulation scale) is
a deliberate speed/security knob for the benchmark harness; security
tests also run at depth 256 where collisions are cryptographically
impossible.  A path collision between *distinct* keys raises rather than
silently corrupting state.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

from repro.crypto.hashing import Digest, fold_path, hash_leaf, hash_node
from repro.errors import ProofError, StateError

DEFAULT_DEPTH = 64

#: Digest of an empty leaf; defaults[d] is the digest of an empty subtree
#: whose leaves sit d levels below.
_EMPTY_LEAF: Digest = hash_leaf(b"repro-smt-empty")


@cache
def default_digests(depth: int) -> tuple[Digest, ...]:
    """``defaults[0..depth]`` for an SMT of the given depth, hashed once
    per depth and process (callers bound ``depth`` to [1, 256] first)."""
    defaults = [_EMPTY_LEAF]
    for _ in range(depth):
        defaults.append(hash_node(defaults[-1], defaults[-1]))
    return tuple(defaults)


def leaf_digest(key: bytes, value: bytes) -> Digest:
    """Digest of an occupied leaf.

    The *full* key is folded in (not just the path bits), so even at
    truncated depths a forged value under a colliding path cannot verify.
    """
    return hash_leaf(b"\x01" + key + value)


def key_path(key: bytes, depth: int) -> int:
    """Map a 32-byte key to its ``depth``-bit path (top bits, big-endian)."""
    if len(key) != 32:
        raise StateError("SMT keys must be 32 bytes")
    return int.from_bytes(key, "big") >> (256 - depth)


@dataclass(frozen=True, slots=True)
class SMTProof:
    """A (non-)membership proof for one key.

    ``siblings`` lists only the non-default sibling digests bottom-up;
    ``default_mask`` bit ``k`` (leaf level is bit 0) is set when the
    sibling at level ``k`` is the default digest and therefore elided.
    """

    key: bytes
    depth: int
    default_mask: int
    siblings: tuple[Digest, ...]

    def fold(self, value: bytes | None, learn: dict | None = None) -> Digest:
        """The root this proof implies for ``key -> value`` (None: absent).

        Everything the prover chose is checked here, once, so the walk is
        check-free and one proof has one encoding.  With ``learn``, every
        node on the path and every sibling is recorded under its heap
        index (the root is 1, the children of ``i`` are ``2i`` and
        ``2i + 1``); a different digest already there is a ProofError.
        """
        depth, mask, siblings = self.depth, self.default_mask, self.siblings
        if (
            type(depth) is not int
            or not 1 <= depth <= 256
            or type(mask) is not int
            or not 0 <= mask < 1 << depth
            or not isinstance(siblings, (tuple, list))
            or len(siblings) != depth - mask.bit_count()
            or any(type(s) is not bytes or len(s) != 32 for s in siblings)
            or type(self.key) is not bytes
            or len(self.key) != 32
            or not (value is None or type(value) is bytes)
        ):
            raise ProofError("malformed SMT proof")
        defaults, rest = default_digests(depth), iter(siblings)
        row = [defaults[k] if mask >> k & 1 else next(rest) for k in range(depth)]
        digest = defaults[0] if value is None else leaf_digest(self.key, value)
        index = 1 << depth | key_path(self.key, depth)
        path = fold_path(digest, index, row, defaults)
        if learn is not None:
            known = learn.setdefault
            for node, sibling in zip(path, row):
                if known(index, node) != node or known(index ^ 1, sibling) != sibling:
                    raise ProofError("inconsistent SMT proofs for the same node")
                index >>= 1
            if known(1, path[-1]) != path[-1]:
                raise ProofError("inconsistent SMT proofs for the same node")
        return path[-1]

    def size_bytes(self) -> int:
        """Serialized size: key + depth byte + mask bitmap + digests."""
        return 32 + 1 + (self.depth + 7) // 8 + 32 * len(self.siblings)


class SparseMerkleTree:
    """Mutable sparse Merkle tree with compressed (non-)membership proofs.

    Of the ``depth`` non-default nodes above a leaf, storage keeps two
    kinds: a *branch* (both subtrees occupied), and each leaf once, at
    its *lone top* — the highest node whose subtree holds nothing else —
    as the leaf digest folded up through default siblings.  Chains below
    a lone top and nodes with one empty child are recomputed on demand:
    ``2n - 1`` entries for ``n`` leaves, whatever the depth.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH) -> None:
        if not 1 <= depth <= 256:
            raise StateError("SMT depth must be in [1, 256]")
        self.depth = depth
        self._defaults = default_digests(depth)
        self._values: dict[bytes, bytes] = {}
        self._path_to_key: dict[int, bytes] = {}
        self._paths: list[int] = []  # occupied paths, ascending
        # Branch and lone-top digests keyed by (level, prefix): level 0 is
        # the leaves, ``prefix`` the path's top ``depth - level`` bits.
        self._nodes: dict[tuple[int, int], Digest] = {}
        self._root = self._defaults[depth]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: bytes) -> bool:
        return key in self._values

    @property
    def root(self) -> Digest:
        return self._root

    def get(self, key: bytes) -> bytes | None:
        """Return the value stored at ``key`` or None."""
        return self._values.get(key)

    def items(self) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs, unordered."""
        return list(self._values.items())

    def update(self, key: bytes, value: bytes | None) -> None:
        """Set ``key`` to ``value`` (None deletes), updating path digests."""
        path = key_path(key, self.depth)
        holder = self._path_to_key.get(path)
        if holder is not None and holder != key:
            raise StateError("SMT path collision between distinct keys; increase depth")
        if value is None and holder is None:
            return
        paths = self._paths
        if value is None or holder is None:
            # The leaf set changes, and with it how far up the sorted
            # neighbours of ``path`` are alone.
            index = bisect_left(paths, path)
            around = [n for n in paths[max(index - 1, 0) : index + 2] if n != path]
            tops = [self._lone_top(n) for n in around]
            if value is None:
                top = self._lone_top(path)
                del self._nodes[(top, path >> top)]
                # The node above was a branch; one child is empty now.
                self._nodes.pop((top + 1, path >> (top + 1)), None)
                del paths[index], self._path_to_key[path], self._values[key]
            else:
                paths.insert(index, path)
                self._path_to_key[path] = key
            for neighbour, top in zip(around, tops):
                if self._lone_top(neighbour) != top:
                    del self._nodes[(top, neighbour >> top)]
                    self._place(neighbour)
        if value is not None:
            self._values[key] = value
            self._place(path)
        elif not paths:
            self._root = self._defaults[self.depth]
            return
        else:
            # Every node above the removed leaf is also above its
            # closest neighbour.
            path = min(around, key=lambda n: n ^ path)
        self._rehash_above(path)

    def update_batch(self, items: dict[bytes, bytes | None]) -> None:
        """Apply many writes."""
        for key, value in items.items():
            self.update(key, value)

    def prove(self, key: bytes) -> SMTProof:
        """Build a compressed (non-)membership proof for ``key``."""
        path = key_path(key, self.depth)
        # Below the level where the key is (or would be) alone, every
        # sibling is empty.
        lowest = self._lone_top(path)
        mask = (1 << lowest) - 1
        siblings: list[Digest] = []
        for level in range(lowest, self.depth):
            sibling = self._subtree_digest(level, (path >> level) ^ 1)
            if sibling is None:
                mask |= 1 << level
            else:
                siblings.append(sibling)
        return SMTProof(
            key=key, depth=self.depth, default_mask=mask, siblings=tuple(siblings)
        )

    # -- internals -------------------------------------------------------

    def _lone_top(self, path: int) -> int:
        """The highest level at which a leaf at ``path`` is (or would be)
        alone in its subtree: one below where it first shares a node with
        the nearer of its sorted neighbours, ``depth`` when it has none."""
        index = bisect_left(self._paths, path)
        near = self._paths[max(index - 1, 0) : index + 2]
        return min(
            ((n ^ path).bit_length() - 1 for n in near if n != path), default=self.depth
        )

    def _fold(self, digest: Digest, path: int, low: int, high: int) -> Digest:
        """Digest of ``path``'s ancestor at level ``high``, given the one at
        ``low`` and nothing else below ``high``."""
        span, defaults = high - low, self._defaults[low:]
        index = 1 << span | path >> low & (1 << span) - 1
        return fold_path(digest, index, defaults[:span], defaults)[-1]

    def _leaf_fold(self, path: int, level: int) -> Digest:
        key = self._path_to_key[path]
        return self._fold(leaf_digest(key, self._values[key]), path, 0, level)

    def _place(self, path: int) -> None:
        """Store the leaf at ``path`` at its lone top."""
        top = self._lone_top(path)
        self._nodes[(top, path >> top)] = self._leaf_fold(path, top)

    def _subtree_digest(self, level: int, prefix: int) -> Digest | None:
        """Digest of any node, stored or not; None for an empty subtree."""
        stored = self._nodes.get((level, prefix))
        if stored is not None:
            return stored
        paths = self._paths
        low = bisect_left(paths, prefix << level)
        high = bisect_left(paths, (prefix + 1) << level, low)
        if low == high:
            return None
        first, last = paths[low], paths[high - 1]
        if first == last:
            # A lone leaf below its top: the sibling of a non-member's path.
            return self._leaf_fold(first, level)
        branch = (first ^ last).bit_length()
        return self._fold(self._nodes[(branch, first >> branch)], first, branch, level)

    def _rehash_above(self, path: int) -> None:
        """Recompute every ancestor of the lone top of the leaf at
        ``path``, storing those that are branches."""
        top = self._lone_top(path)
        digest = self._nodes[(top, path >> top)]
        for level in range(top, self.depth):
            prefix = path >> level
            sibling = self._subtree_digest(level, prefix ^ 1)
            other = self._defaults[level] if sibling is None else sibling
            pair = (other, digest) if prefix & 1 else (digest, other)
            digest = hash_node(*pair)
            if sibling is not None:
                self._nodes[(level + 1, prefix >> 1)] = digest
        self._root = digest


def verify_proof(
    root: Digest, key: bytes, value: bytes | None, proof: SMTProof
) -> bool:
    """Check an :class:`SMTProof` asserting ``key -> value`` under ``root``.

    ``value is None`` verifies *non-membership* (the leaf is empty).  A
    malformed proof is a False verdict, like any other that fails.
    """
    try:
        return proof.key == key and proof.fold(value) == root
    except ProofError:
        return False
