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

from repro.crypto.hashing import Digest, fold_path
from repro.errors import ProofError
from repro.merkle.smt import SMTProof, default_digests, key_path, leaf_digest


class PartialSMT:
    """A verified slice of a sparse Merkle tree, mutable on proven keys."""

    def __init__(self, depth: int) -> None:
        if type(depth) is not int or not 1 <= depth <= 256:
            raise ProofError("SMT depth must be an integer in [1, 256]")
        self.depth = depth
        self._defaults = default_digests(depth)
        # Known node digests keyed by heap index: the root is 1, the
        # children of ``i`` are ``2i`` and ``2i + 1``, and the leaf at
        # ``path`` is ``1 << depth | path``.
        self._nodes: dict[int, Digest] = {}
        self._values: dict[bytes, bytes | None] = {}

    @classmethod
    def from_proofs(
        cls, root: Digest, entries: list[tuple[bytes, bytes | None, SMTProof]]
    ) -> "PartialSMT":
        """Verify ``entries`` against ``root`` and merge them into a slice.

        Each entry is ``(key, value_or_None, proof)``; ``None`` asserts
        non-membership.  Raises :class:`ProofError` if any proof fails or
        two proofs disagree about a shared node.
        """
        if not entries:
            raise ProofError("cannot build a partial SMT from zero proofs")
        partial = cls(entries[0][2].depth)
        for key, value, proof in entries:
            partial.merge_entry(root, key, value, proof)
        return partial

    def __len__(self) -> int:
        return len(self._values)

    def covers(self, key: bytes) -> bool:
        """True when ``key`` was proven and can be read or written."""
        return key in self._values

    def merge_entry(
        self, root: Digest, key: bytes, value: bytes | None, proof: "SMTProof"
    ) -> None:
        """Verify and merge one more proof into the slice.

        Only valid before any :meth:`update` — proofs verify against the
        original root.  The path's nodes and siblings are learned and
        cross-checked against what earlier proofs taught.
        """
        if proof.depth != self.depth:
            raise ProofError("mixed-depth SMT proofs")
        if proof.key != key:
            raise ProofError("SMT proof bound to a different key")
        if proof.fold(value, self._nodes) != root:
            raise ProofError("SMT proof does not verify against the state root")
        self._values[key] = value

    def get(self, key: bytes) -> bytes | None:
        """Value at a proven key (None = proven absent)."""
        if key not in self._values:
            raise ProofError("read of a key outside the proven slice")
        return self._values[key]

    #: BackingState-protocol alias, so the executor can replay
    #: transactions directly against the proven slice.
    get_raw = get

    def update(self, key: bytes, value: bytes | None) -> None:
        """Write a proven key and recompute digests up to the root."""
        if key not in self._values:
            raise ProofError("write to a key outside the proven slice")
        self._values[key] = value
        index = 1 << self.depth | key_path(key, self.depth)
        heap = [index >> level for level in range(self.depth + 1)]
        try:
            siblings = [self._nodes[node ^ 1] for node in heap[:-1]]
        except KeyError:
            # A proven key's merge learned every sibling of its path (an
            # elided one as an explicit default): the slice was tampered with.
            raise ProofError("internal SMT node outside the proven slice") from None
        digest = self._defaults[0] if value is None else leaf_digest(key, value)
        path = fold_path(digest, index, siblings, self._defaults)
        self._nodes.update(zip(heap, path))

    def update_batch(self, items: dict[bytes, bytes | None]) -> None:
        """Apply many writes (all keys must be proven)."""
        for key, value in items.items():
            self.update(key, value)

    @property
    def root(self) -> Digest:
        """Current root of the (partially known, possibly updated) tree."""
        return self._nodes.get(1, self._defaults[self.depth])
