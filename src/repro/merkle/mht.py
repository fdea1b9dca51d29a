"""Binary Merkle Hash Tree over an ordered list of items.

This is the structure from Fig. 1 of the paper: leaves are hashed items,
internal nodes hash the concatenation of their children, and a membership
proof is the list of sibling digests along the leaf-to-root path.  Blocks
use it to commit to their transaction list (``H_tx``).

Odd nodes are *promoted* unchanged to the next level (rather than
duplicated), which avoids the CVE-2012-2459 style ambiguity where two
different leaf lists share a root.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_leaf, hash_node, sha256
from repro.errors import ProofError

#: Root committed by a tree with no leaves.
EMPTY_ROOT: Digest = sha256(b"repro-empty-mht")


@dataclass(frozen=True, slots=True)
class MembershipProof:
    """Sibling path proving one leaf's membership under a root.

    ``siblings[k]`` is the sibling digest at level ``k`` (leaf level is 0)
    or ``None`` when the node was promoted without a sibling.
    """

    index: int
    siblings: tuple[Digest | None, ...]

    def size_bytes(self) -> int:
        """Serialized proof size (index + presence bitmap + digests)."""
        present = sum(1 for s in self.siblings if s is not None)
        bitmap = (len(self.siblings) + 7) // 8
        return 8 + bitmap + 32 * present


class MerkleTree:
    """An immutable binary Merkle tree built from a list of leaf payloads."""

    def __init__(self, leaves: list[bytes]) -> None:
        self._levels: list[list[Digest]] = [[hash_leaf(leaf) for leaf in leaves]]
        current = self._levels[0]
        while len(current) > 1:
            parents: list[Digest] = []
            for i in range(0, len(current) - 1, 2):
                parents.append(hash_node(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                parents.append(current[-1])  # promote the lonely node
            self._levels.append(parents)
            current = parents

    def __len__(self) -> int:
        return len(self._levels[0])

    @property
    def root(self) -> Digest:
        """The Merkle root (a fixed sentinel for the empty tree)."""
        if not self._levels[0]:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def prove(self, index: int) -> MembershipProof:
        """Build a membership proof for the leaf at ``index``."""
        if not 0 <= index < len(self):
            raise ProofError(f"leaf index {index} out of range")
        siblings: list[Digest | None] = []
        position = index
        for level in self._levels[:-1]:
            sibling_index = position ^ 1
            if sibling_index < len(level):
                siblings.append(level[sibling_index])
            else:
                siblings.append(None)  # promoted — no sibling at this level
            position //= 2
        return MembershipProof(index=index, siblings=tuple(siblings))


def verify_membership(root: Digest, leaf: bytes, proof: MembershipProof) -> bool:
    """Check that ``leaf`` is committed at ``proof.index`` under ``root``."""
    digest = hash_leaf(leaf)
    position = proof.index
    for sibling in proof.siblings:
        if sibling is None:
            pass  # promoted node: digest is unchanged at this level
        elif position % 2 == 0:
            digest = hash_node(digest, sibling)
        else:
            digest = hash_node(sibling, digest)
        position //= 2
    return digest == root
