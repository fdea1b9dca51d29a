"""Domain-separated SHA-256 hashing used by every authenticated structure.

All Merkle structures in this library hash through these helpers so that
leaves can never be confused with internal nodes (the classic second-
preimage attack on naive Merkle trees) and so that different structures
(state trie, transaction tree, MB-tree, inverted index...) live in
disjoint hash domains.
"""

from __future__ import annotations

import hashlib

#: Size in bytes of every digest in the library.
HASH_SIZE = 32

#: A digest is always exactly ``HASH_SIZE`` bytes.
Digest = bytes

#: Digest of the empty input; used as the canonical "nothing" commitment.
EMPTY_DIGEST: Digest = hashlib.sha256(b"").digest()

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


def sha256(data: bytes) -> Digest:
    """Hash ``data`` with SHA-256 and return the 32-byte digest."""
    return hashlib.sha256(data).digest()


def tagged_hash(tag: str, data: bytes) -> Digest:
    """Hash ``data`` in the domain named by ``tag``.

    Uses the BIP-340 style ``H(H(tag) || H(tag) || data)`` construction so
    that digests from different domains can never collide by accident.
    """
    tag_digest = sha256(tag.encode("utf-8"))
    return sha256(tag_digest + tag_digest + data)


def hash_leaf(data: bytes) -> Digest:
    """Hash a Merkle leaf (domain-separated from internal nodes)."""
    return sha256(_LEAF_TAG + data)


def hash_node(left: Digest, right: Digest) -> Digest:
    """Hash an internal Merkle node from its two children."""
    return sha256(_NODE_TAG + left + right)


def fold_path(digest, index, row, defaults) -> list[Digest]:
    """Fold ``digest`` up a binary Merkle path: the one bottom-up walk.

    ``index`` is the start node's heap index below the node the walk ends
    at (that node is 1, the children of ``i`` are ``2i`` and ``2i + 1``);
    ``row[k]`` is the sibling ``k`` levels above the start, one per level
    climbed; ``defaults[k]`` is the digest of an empty subtree of that
    height.  Returns the digest of every node on the path, the start
    node's first and the end node's last.

    An empty subtree beside an empty sibling is the next default by
    definition (``defaults[k + 1] == hash_node(defaults[k], defaults[k])``),
    so those levels cost no hash.
    """
    skip = 0
    if digest == defaults[0]:
        while skip < len(row) and row[skip] == defaults[skip]:
            skip += 1
        digest = defaults[skip]
    path, sha = [*defaults[:skip], digest], hashlib.sha256
    # ``bin`` spells the turns from the end node down; reversed, from the
    # start node up (``zip`` stops before the leading 1).
    for sibling, turn in zip(row[skip:], reversed(bin(index >> skip))):
        if turn == "1":
            digest = sha(_NODE_TAG + sibling + digest).digest()
        else:
            digest = sha(_NODE_TAG + digest + sibling).digest()
        path.append(digest)
    return path


def hash_concat(*parts: bytes) -> Digest:
    """Hash the length-prefixed concatenation of ``parts``.

    Length prefixes make the encoding injective: ``hash_concat(b"ab", b"c")``
    and ``hash_concat(b"a", b"bc")`` produce different digests.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()
