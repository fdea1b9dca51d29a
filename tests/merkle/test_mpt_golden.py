"""Byte identity of the Merkle Patricia Trie on honest input.

One digest over three seeded insert walks: every intermediate root, and
— after every insert — the wire encoding (decoded back and compared) and
``size_bytes()`` of ``prove(k)`` for every key of the set, present or
not yet inserted, plus keys that never are.  The three key sets are the
shapes the certified indexes feed the trie:

* ``hashed`` — 8-byte ``tagged_hash`` account keys (history, aggregate);
* ``keyword`` — raw UTF-8 keys sharing long prefixes (``acct0`` …), some
  a prefix of another (keyword dictionary, value-range directory);
* ``nested`` — short keys over a three-byte alphabet plus the empty key,
  so branch values, leaf splits and extension splits (diverging at the
  first nibble, in the middle, and ending inside the compressed path)
  all occur.

The pinned value was recorded at the commit *before* ``merkle/mpt.py``
moved onto one open-once engine, by running this file against the
parent's untouched module::

    git clone /root/repo /root/scratch/parent   # at a5519c6
    cp tests/merkle/test_mpt_golden.py /root/scratch/parent/tests/merkle/
    cd /root/scratch/parent && PYTHONPATH=src python -c \
        "from tests.merkle.test_mpt_golden import golden_digest as g; print(g())"

Never re-record it to make a change pass (the ``test_btree_golden.py``
rule).
"""

import hashlib
import random

from repro.crypto.hashing import tagged_hash
from repro.merkle.mpt import MerklePatriciaTrie
from repro.net import wire

GOLDEN = "f7927ed965466e71d9e145c8f296f963cf3cee61c17264779bbde391c9555258"


def _hashed_keys() -> tuple[list[bytes], list[bytes]]:
    def key(label: str) -> bytes:
        return tagged_hash("idx-account", label.encode("utf-8"))[:8]

    return [key(f"acct{i}") for i in range(48)], [key(f"ghost{i}") for i in range(8)]


def _keyword_keys() -> tuple[list[bytes], list[bytes]]:
    words = [f"acct{i}" for i in range(30)] + [
        "a", "ac", "amalgamate", "deposit", "deposit_check", "send",
        "send_payment", "transfer", "transact", "write", "write_check",
    ]
    absent = ["acct", "acct30", "acc", "b", "sen", "send_payments", "writer", "z"]
    return [w.encode("utf-8") for w in words], [w.encode("utf-8") for w in absent]


def _nested_keys() -> tuple[list[bytes], list[bytes]]:
    rng = random.Random("mpt-golden-nested-keys")
    alphabet = (0x11, 0x12, 0x21)
    pool = {b""}
    while len(pool) < 60:
        pool.add(bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 5))))
    ordered = sorted(pool)
    rng.shuffle(ordered)
    # Two long keys first make one long extension; the next three split
    # it at its first nibble, in its middle, and by ending inside it.
    forced = [
        b"\xab\xcd\xef\x01", b"\xab\xcd\xef\x02", b"\x0b\xcd", b"\xab\xc0\x00", b"\xab\xcd",
    ]
    return forced + ordered[:40], ordered[40:] + [b"\xab", b"\xab\xcd\xef", b"\xff"]


KEY_SETS = {
    "hashed": _hashed_keys,
    "keyword": _keyword_keys,
    "nested": _nested_keys,
}


def insertion_order(name: str) -> tuple[list[tuple[bytes, bytes]], list[bytes]]:
    """``([(key, value), ...] in insert order, every key to probe)``.

    The order is a seeded shuffle of the set followed by overwrites of a
    quarter of it; values are 1–40 random bytes (no index stores an empty
    one)."""
    present, absent = KEY_SETS[name]()
    rng = random.Random(f"mpt-golden-{name}")
    order = list(present)
    if name != "nested":  # nested keeps its forced extension-split prefix
        rng.shuffle(order)
    order += rng.sample(order, len(order) // 4)
    inserts = [(key, rng.randbytes(rng.randrange(1, 41))) for key in order]
    return inserts, present + absent


def _absorb(hasher, proof) -> None:
    encoded = wire.encode(proof)
    assert wire.decode(encoded) == proof
    hasher.update(len(encoded).to_bytes(4, "big") + encoded)
    hasher.update(proof.size_bytes().to_bytes(4, "big"))


def golden_digest() -> str:
    hasher = hashlib.sha256()
    for name in KEY_SETS:
        inserts, probes = insertion_order(name)
        trie = MerklePatriciaTrie()
        hasher.update(trie.root)
        for probe in probes:
            _absorb(hasher, trie.prove(probe))
        for key, value in inserts:
            trie.insert(key, value)
            hasher.update(trie.root + len(trie).to_bytes(4, "big"))
            for probe in probes:
                _absorb(hasher, trie.prove(probe))
    return hasher.hexdigest()


def test_trie_bytes_match_the_digest_recorded_at_the_parent_commit():
    assert golden_digest() == GOLDEN
