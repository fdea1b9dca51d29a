"""Partial sparse Merkle tree reconstructed from proofs alone.

This structure is the heart of the *stateless enclave* design (§4.1 of
the paper).  The CI's outside-enclave program ships, for every key in the
block's read and write sets, a compressed SMT proof against the previous
state root.  Inside the enclave we rebuild just the proven slice of the
tree, which lets the enclave

1. verify that every read value is authentic (Alg. 2, line 17),
2. re-execute the block's transactions against the proven values, and
3. apply the resulting write set and recompute the *new* state root
   (Alg. 2, lines 22-23) — all without ever holding the full state,
   whose size (hundreds of GB on mainnets) dwarfs the 93 MB EPC.

Keys whose proofs were not supplied are simply *unknown*: reading or
writing them raises, which is exactly the behaviour that forces a
malicious CI to supply complete, consistent proofs.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, hash_node
from repro.errors import ProofError
from repro.merkle.smt import (
    SMTProof,
    default_digests,
    key_path,
    leaf_digest,
)


class PartialSMT:
    """A verified slice of a sparse Merkle tree, mutable on proven keys."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._defaults = default_digests(depth)
        # Known node digests keyed by (level, prefix); level 0 = leaves.
        self._nodes: dict[tuple[int, int], Digest] = {}
        self._values: dict[bytes, bytes | None] = {}

    @classmethod
    def from_proofs(
        cls,
        root: Digest,
        entries: list[tuple[bytes, bytes | None, SMTProof]],
    ) -> "PartialSMT":
        """Verify ``entries`` against ``root`` and merge them into a slice.

        Each entry is ``(key, value_or_None, proof)``; ``None`` asserts
        non-membership.  Raises :class:`ProofError` if any proof fails or
        two proofs disagree about a shared node.
        """
        if not entries:
            raise ProofError("cannot build a partial SMT from zero proofs")
        depth = entries[0][2].depth
        partial = cls(depth)
        for key, value, proof in entries:
            partial._merge_entry(root, key, value, proof)
        return partial

    def __len__(self) -> int:
        return len(self._values)

    def covers(self, key: bytes) -> bool:
        """True when ``key`` was proven and can be read or written."""
        return key in self._values

    def forget(self, keys) -> None:
        """Evict entries from the slice and prune unneeded node digests.

        This is how a bounded proof cache stays bounded: evicted keys
        must be re-proven before they can be read or written again, and
        every internal digest that no remaining entry's path (or path
        sibling) touches is dropped.  Forgetting a key the slice does
        not hold is a no-op, so untrusted eviction hints are safe to
        apply verbatim.
        """
        dropped = False
        for key in keys:
            if key in self._values:
                del self._values[key]
                dropped = True
        if not dropped:
            return
        if not self._values:
            self._nodes.clear()
            return
        keep: set[tuple[int, int]] = {(self.depth, 0)}
        for key in self._values:
            prefix = key_path(key, self.depth)
            for level in range(self.depth):
                keep.add((level, prefix))
                keep.add((level, prefix ^ 1))
                prefix >>= 1
                keep.add((level + 1, prefix))
        self._nodes = {
            position: digest
            for position, digest in self._nodes.items()
            if position in keep
        }

    def merge_entry(
        self, root: Digest, key: bytes, value: bytes | None, proof: "SMTProof"
    ) -> None:
        """Verify and merge one more proof into the slice.

        Only valid before any :meth:`update` — proofs verify against the
        original root.  Lazy (Ocall-fetching) enclave designs use this
        to grow the slice on demand.
        """
        self._merge_entry(root, key, value, proof)

    def get(self, key: bytes) -> bytes | None:
        """Value at a proven key (None = proven absent)."""
        if key not in self._values:
            raise ProofError("read of a key outside the proven slice")
        return self._values[key]

    def get_raw(self, key: bytes) -> bytes | None:
        """BackingState-protocol alias, so the executor can replay
        transactions directly against the proven slice."""
        return self.get(key)

    def update(self, key: bytes, value: bytes | None) -> None:
        """Write a proven key and recompute digests up to the root."""
        if key not in self._values:
            raise ProofError("write to a key outside the proven slice")
        self._values[key] = value
        path = key_path(key, self.depth)
        self._nodes[(0, path)] = (
            self._defaults[0] if value is None else leaf_digest(key, value)
        )
        prefix = path
        for level in range(1, self.depth + 1):
            prefix >>= 1
            left = self._known_child(level - 1, prefix << 1)
            right = self._known_child(level - 1, (prefix << 1) | 1)
            self._nodes[(level, prefix)] = hash_node(left, right)

    def update_batch(self, items: dict[bytes, bytes | None]) -> None:
        """Apply many writes (all keys must be proven)."""
        for key, value in items.items():
            self.update(key, value)

    @property
    def root(self) -> Digest:
        """Current root of the (partially known, possibly updated) tree."""
        return self._nodes.get((self.depth, 0), self._defaults[self.depth])

    # -- internals -------------------------------------------------------

    def _known_child(self, level: int, prefix: int) -> Digest:
        digest = self._nodes.get((level, prefix))
        if digest is not None:
            return digest
        # A child never named by any proof and never written: it can only
        # be default if some verified proof elided it, which _merge_entry
        # records as an explicit default entry — so absence here is a bug
        # in the supplied proofs, not in us.
        raise ProofError("internal SMT node outside the proven slice")

    def _merge_entry(
        self, root: Digest, key: bytes, value: bytes | None, proof: SMTProof
    ) -> None:
        if proof.depth != self.depth:
            raise ProofError("mixed-depth SMT proofs")
        if proof.key != key:
            raise ProofError("SMT proof bound to a different key")
        path = key_path(key, self.depth)
        digest = self._defaults[0] if value is None else leaf_digest(key, value)
        # Walk to the root, recording every node we learn along the way
        # and cross-checking against nodes learned from earlier proofs.
        self._learn((0, path), digest)
        cursor = 0
        prefix = path
        for level in range(self.depth):
            sibling, cursor = proof.sibling_at(level, cursor)
            if sibling is None:
                sibling = self._defaults[level]
            self._learn((level, prefix ^ 1), sibling)
            if prefix & 1:
                digest = hash_node(sibling, digest)
            else:
                digest = hash_node(digest, sibling)
            prefix >>= 1
            self._learn((level + 1, prefix), digest)
        if cursor != len(proof.siblings):
            raise ProofError("SMT proof has trailing sibling digests")
        if digest != root:
            raise ProofError("SMT proof does not verify against the state root")
        self._values[key] = value

    def _learn(self, position: tuple[int, int], digest: Digest) -> None:
        existing = self._nodes.get(position)
        if existing is not None and existing != digest:
            raise ProofError("inconsistent SMT proofs for the same node")
        self._nodes[position] = digest
