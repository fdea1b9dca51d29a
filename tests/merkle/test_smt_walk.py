"""The one SMT path walk against the three loops it replaced.

Until PR 19 a path was walked bottom-up in three places: ``verify_proof``,
``PartialSMT._merge_entry`` / ``update`` and ``SparseMerkleTree._fold``.
They are kept here *verbatim* (``Ref*`` below, keyed the way they were:
``(level, prefix)`` tuples) as the reference the engine
(``repro.crypto.hashing.fold_path`` behind ``SMTProof.fold``) is compared
with: roots, verdicts, learned nodes and ``ProofError`` messages.  The only differences allowed are the malformed
proofs listed in ``test_malformed_proofs_fail_typed``: the reference lets
an untyped exception escape on them (or, for an over-wide mask, verifies
a second encoding of the same proof).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from repro.crypto.hashing import hash_node
from repro.errors import ProofError
from repro.merkle.partial import PartialSMT
from repro.merkle.smt import (
    SMTProof,
    SparseMerkleTree,
    default_digests,
    key_path,
    leaf_digest,
    verify_proof,
)

DEPTHS = (8, 64, 256)


# -- the parent's loops, verbatim ------------------------------------------------


def ref_default_digests(depth):
    defaults = [default_digests(0)[0]]
    for _ in range(depth):
        defaults.append(hash_node(defaults[-1], defaults[-1]))
    return defaults


def ref_sibling_at(proof, level, cursor):
    if proof.default_mask >> level & 1:
        return None, cursor
    return proof.siblings[cursor], cursor + 1


def ref_verify_proof(root, key, value, proof):
    if proof.key != key:
        return False
    defaults = ref_default_digests(proof.depth)
    digest = defaults[0] if value is None else leaf_digest(key, value)
    path = key_path(key, proof.depth)
    cursor = 0
    for level in range(proof.depth):
        sibling, cursor = ref_sibling_at(proof, level, cursor)
        if sibling is None:
            sibling = defaults[level]
        if path >> level & 1:
            digest = hash_node(sibling, digest)
        else:
            digest = hash_node(digest, sibling)
    if cursor != len(proof.siblings):
        raise ProofError("SMT proof has trailing sibling digests")
    return digest == root


def ref_fold(defaults, digest, path, low, high):
    for level in range(low, high):
        if path >> level & 1:
            digest = hash_node(defaults[level], digest)
        else:
            digest = hash_node(digest, defaults[level])
    return digest


class RefPartialSMT:
    def __init__(self, depth):
        self.depth = depth
        self._defaults = ref_default_digests(depth)
        self._nodes = {}
        self._values = {}

    def update(self, key, value):
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

    def update_batch(self, items):
        for key, value in items.items():
            self.update(key, value)

    @property
    def root(self):
        return self._nodes.get((self.depth, 0), self._defaults[self.depth])

    def _known_child(self, level, prefix):
        digest = self._nodes.get((level, prefix))
        if digest is not None:
            return digest
        raise ProofError("internal SMT node outside the proven slice")

    def merge_entry(self, root, key, value, proof):
        if proof.depth != self.depth:
            raise ProofError("mixed-depth SMT proofs")
        if proof.key != key:
            raise ProofError("SMT proof bound to a different key")
        path = key_path(key, self.depth)
        digest = self._defaults[0] if value is None else leaf_digest(key, value)
        self._learn((0, path), digest)
        cursor = 0
        prefix = path
        for level in range(self.depth):
            sibling, cursor = ref_sibling_at(proof, level, cursor)
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

    def _learn(self, position, digest):
        existing = self._nodes.get(position)
        if existing is not None and existing != digest:
            raise ProofError("inconsistent SMT proofs for the same node")
        self._nodes[position] = digest


# -- helpers ---------------------------------------------------------------------


def key_at(path: int, depth: int, rng: random.Random) -> bytes:
    """A 32-byte key whose top ``depth`` bits are ``path``."""
    low = 256 - depth
    return (path << low | rng.getrandbits(low) if low else path).to_bytes(32, "big")


def random_tree(depth: int, leaves: int, rng: random.Random):
    tree = SparseMerkleTree(depth)
    paths = rng.sample(range(1 << min(depth, 60)), leaves)
    for path in paths:
        # Spread shallow samples over the whole path space of deep trees.
        path <<= max(depth - 60, 0)
        tree.update(key_at(path, depth, rng), rng.randbytes(rng.randrange(1, 40)))
    return tree


def strangers(tree: SparseMerkleTree, count: int, rng: random.Random) -> list[bytes]:
    """Keys on ``count`` distinct paths no leaf of ``tree`` occupies."""
    depth, paths = tree.depth, set(tree._paths)
    found = []
    while len(found) < count:
        path = rng.getrandbits(depth)
        if path not in paths:
            paths.add(path)
            found.append(key_at(path, depth, rng))
    return found


def heap_keyed(ref: RefPartialSMT) -> dict[int, bytes]:
    return {
        1 << (ref.depth - level) | prefix: digest
        for (level, prefix), digest in ref._nodes.items()
    }


def both_slices(depth: int):
    return PartialSMT(depth), RefPartialSMT(depth)


def outcome(call, *args):
    """What a call does, comparably: its value, or its error's type and text."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the reference raises untyped
        return type(exc).__name__, str(exc)


def lowest_sibling(proof: SMTProof) -> int:
    """Level of the proof's lowest non-default sibling (depth when none)."""
    mask = proof.default_mask
    return (~mask & mask + 1).bit_length() - 1


# -- the identity the free levels rest on ------------------------------------------


def test_default_of_defaults_is_the_next_default():
    defaults = default_digests(256)
    assert len(defaults) == 257
    for level in range(256):
        assert hash_node(defaults[level], defaults[level]) == defaults[level + 1]
    assert list(defaults) == ref_default_digests(256)
    assert default_digests(64) == defaults[:65]
    assert default_digests(256) is defaults  # once per depth, immutable
    assert isinstance(defaults, tuple)


# -- differential: verdicts, roots, learned nodes ----------------------------------


@pytest.mark.parametrize("depth", DEPTHS)
def test_members_and_non_members_agree_with_the_reference(depth):
    rng = random.Random(1900 + depth)
    tree = random_tree(depth, 40, rng)
    new, ref = both_slices(depth)
    members = rng.sample([key for key, _ in tree.items()], 12)
    absent = strangers(tree, 12, rng)
    for key in members + absent:
        value, proof = tree.get(key), tree.prove(key)
        assert verify_proof(tree.root, key, value, proof)
        assert ref_verify_proof(tree.root, key, value, proof)
        # The opposite claim, a wrong value and a wrong root: same verdicts.
        for claim in (None if value is not None else b"x", b"other"):
            assert not verify_proof(tree.root, key, claim, proof)
            assert not ref_verify_proof(tree.root, key, claim, proof)
        assert not verify_proof(rng.randbytes(32), key, value, proof)
        new.merge_entry(tree.root, key, value, proof)
        ref.merge_entry(tree.root, key, value, proof)
        assert new._nodes == heap_keyed(ref)
    assert new.root == ref.root == tree.root
    assert len(new) == len(members) + len(absent)

    writes = {key: rng.randbytes(8) for key in members[:6]}
    writes.update({key: None for key in members[6:9]})  # deletes
    writes.update({key: rng.randbytes(8) for key in absent[:6]})  # inserts
    new.update_batch(writes)
    ref.update_batch(writes)
    tree.update_batch(dict(writes))
    assert new.root == ref.root == tree.root
    assert new._nodes == heap_keyed(ref)
    assert new._values == ref._values


@pytest.mark.parametrize("depth", DEPTHS)
def test_non_member_at_every_lowest_sibling_level(depth):
    """One leaf; a stranger whose path leaves the leaf's at bit ``level``
    has its lowest (and only) non-default sibling exactly there."""
    rng = random.Random(2000 + depth)
    tree = SparseMerkleTree(depth)
    path = rng.getrandbits(depth)
    tree.update(key_at(path, depth, rng), b"lone")
    for level in range(depth):
        low_bits = rng.getrandbits(level) if level else 0
        stranger = key_at((path >> level ^ 1) << level | low_bits, depth, rng)
        proof = tree.prove(stranger)
        assert lowest_sibling(proof) == level and len(proof.siblings) == 1
        assert verify_proof(tree.root, stranger, None, proof)
        assert ref_verify_proof(tree.root, stranger, None, proof)
        assert not verify_proof(tree.root, stranger, b"present", proof)
        new, ref = both_slices(depth)
        new.merge_entry(tree.root, stranger, None, proof)
        ref.merge_entry(tree.root, stranger, None, proof)
        assert new._nodes == heap_keyed(ref)
        # Insert next to the lone leaf, then delete it again.
        for value in (b"inserted", None):
            new.update(stranger, value)
            ref.update(stranger, value)
            assert new.root == ref.root and new._nodes == heap_keyed(ref)
        assert new.root == tree.root
    # No sibling at all: the empty tree proves anything absent for free.
    empty = SparseMerkleTree(depth)
    proof = empty.prove(stranger)
    assert lowest_sibling(proof) == depth and proof.siblings == ()
    assert verify_proof(empty.root, stranger, None, proof)
    assert ref_verify_proof(empty.root, stranger, None, proof)


@pytest.mark.parametrize("depth", DEPTHS)
def test_updates_in_every_order_and_deletes_back_to_empty(depth):
    rng = random.Random(2100 + depth)
    tree = random_tree(depth, 3, rng)
    old = [key for key, _ in tree.items()]
    fresh = strangers(tree, 2, rng)
    entries = [(key, tree.get(key), tree.prove(key)) for key in old + fresh]
    writes = [(old[0], b"rewritten"), (old[1], None), (fresh[0], b"a"), (fresh[1], b"b")]
    expected = SparseMerkleTree(depth)
    expected.update_batch(dict(tree.items()))
    expected.update_batch(dict(writes))
    for order in itertools.permutations(writes):
        new = PartialSMT.from_proofs(tree.root, entries)
        ref = RefPartialSMT(depth)
        for entry in entries:
            ref.merge_entry(tree.root, *entry)
        for key, value in order:
            new.update(key, value)
            ref.update(key, value)
            assert new.root == ref.root
        assert new.root == expected.root
        assert new._nodes == heap_keyed(ref)
    # Everything deleted, in the slice and in the tree: the default root.
    for key in old + fresh:
        new.update(key, None)
        ref.update(key, None)
        expected.update(key, None)
    assert new.root == ref.root == expected.root == default_digests(depth)[depth]
    assert new._nodes == heap_keyed(ref)


@pytest.mark.parametrize("depth", DEPTHS)
def test_real_tree_fold_agrees_with_the_reference(depth):
    rng = random.Random(2200 + depth)
    tree = SparseMerkleTree(depth)
    defaults = ref_default_digests(depth)
    for _ in range(200):
        low = rng.randrange(depth + 1)
        high = rng.randrange(low, depth + 1)
        digest, path = rng.randbytes(32), rng.getrandbits(depth)
        assert tree._fold(digest, path, low, high) == ref_fold(
            defaults, digest, path, low, high
        )
    # Even a digest that happens to be a default folds to the same value.
    assert tree._fold(defaults[0], 0, 0, depth) == defaults[depth]
    assert tree._fold(defaults[3], 5, 3, depth) == ref_fold(
        defaults, defaults[3], 5, 3, depth
    )


# -- same errors, same messages ------------------------------------------------------


@pytest.mark.parametrize("depth", DEPTHS)
def test_forgeries_raise_the_reference_messages(depth):
    rng = random.Random(2300 + depth)
    tree = random_tree(depth, 20, rng)
    keys = [key for key, _ in tree.items()]
    a, b = keys[0], keys[1]
    proof_a, proof_b = tree.prove(a), tree.prove(b)
    root = tree.root
    other = random_tree(depth, 5, rng)
    stale_root = tree.root
    tree.update(b, b"moved on")
    newer_b = tree.prove(b)
    other_depth = SparseMerkleTree(8 if depth != 8 else 64)
    other_depth.update(a, b"v")

    value_a = tree.get(a)

    def run(make, scenario):
        slice_ = make(depth)
        slice_.merge_entry(root, a, value_a, proof_a)
        return outcome(scenario, slice_)

    for make in (PartialSMT, RefPartialSMT):
        assert outcome(make(depth).merge_entry, other.root, a, value_a, proof_a) == (
            "ProofError", "SMT proof does not verify against the state root"
        )
    scenarios = {
        "SMT proof bound to a different key": lambda s: s.merge_entry(
            root, keys[2], tree.get(keys[2]), proof_b
        ),
        "mixed-depth SMT proofs": lambda s: s.merge_entry(
            other_depth.root, a, b"v", other_depth.prove(a)
        ),
        # Valid against the newer root, so it contradicts what ``a`` taught.
        "inconsistent SMT proofs for the same node": lambda s: s.merge_entry(
            stale_root, b, b"moved on", newer_b
        ),
        "write to a key outside the proven slice": lambda s: s.update(b, b"x"),
    }
    for message, scenario in scenarios.items():
        assert run(PartialSMT, scenario) == ("ProofError", message)
        assert run(RefPartialSMT, scenario) == ("ProofError", message)
    with pytest.raises(ProofError, match="read of a key outside the proven slice"):
        PartialSMT(depth).get(a)
    with pytest.raises(ProofError, match="zero proofs"):
        PartialSMT.from_proofs(root, [])

    # An unproven sibling: every proven key has all of its siblings, so
    # this takes a node removed behind the slice's back.
    new, ref = both_slices(depth)
    for slice_ in (new, ref):
        slice_.merge_entry(root, a, value_a, proof_a)
    level = depth // 2
    prefix = key_path(a, depth) >> level ^ 1
    del new._nodes[1 << (depth - level) | prefix]
    del ref._nodes[(level, prefix)]
    message = "internal SMT node outside the proven slice"
    assert outcome(new.update, a, b"x") == ("ProofError", message)
    assert outcome(ref.update, a, b"x") == ("ProofError", message)


# -- every one-field edit of a valid proof ---------------------------------------------


def one_field_edits(proof: SMTProof, rng: random.Random):
    """(label, edited proof) for each single-field mutation."""
    siblings = proof.siblings
    for i, sibling in enumerate(siblings):
        flipped = bytes([sibling[0] ^ 1]) + sibling[1:]
        yield f"sibling {i} flipped", replace(
            proof, siblings=siblings[:i] + (flipped,) + siblings[i + 1 :]
        )
        yield f"sibling {i} dropped", replace(
            proof, siblings=siblings[:i] + siblings[i + 1 :]
        )
        yield f"sibling {i} duplicated", replace(
            proof, siblings=siblings[: i + 1] + siblings[i:]
        )
    for bit in range(proof.depth):
        yield f"mask bit {bit} toggled", replace(
            proof, default_mask=proof.default_mask ^ 1 << bit
        )
    yield "key edited", replace(proof, key=rng.randbytes(32))
    for depth in (proof.depth - 1, proof.depth + 1):
        if 1 <= depth <= 256:
            yield f"depth {depth}", replace(proof, depth=depth)


@pytest.mark.parametrize("depth", DEPTHS)
def test_every_one_field_edit_gets_the_reference_verdict(depth):
    rng = random.Random(2400 + depth)
    tree = random_tree(depth, 24, rng)
    member = next(iter(tree.items()))[0]
    (stranger,) = strangers(tree, 1, rng)
    malformed = 0
    for key in (member, stranger):
        value = tree.get(key)
        proof = tree.prove(key)
        assert value is not None or key == stranger
        edits = list(one_field_edits(proof, rng))
        edits.append(("value edited", proof))
        for label, edited in edits:
            claim = b"another" if label == "value edited" else value
            want = outcome(ref_verify_proof, tree.root, key, claim, edited)
            got = verify_proof(tree.root, key, claim, edited)
            merged = outcome(
                PartialSMT(depth).merge_entry, tree.root, key, claim, edited
            )
            ref_merged = outcome(
                RefPartialSMT(depth).merge_entry, tree.root, key, claim, edited
            )
            if isinstance(want, bool):
                # Well-formed: the reference's verdict and its message.
                assert got is want is False, label
                assert merged == ref_merged and merged[0] == "ProofError", label
            else:
                # Sibling count and mask disagree: the reference raises
                # (IndexError, or ProofError for trailing digests) where
                # a verdict was asked for.  See the malformed-proof test.
                assert want[0] in ("IndexError", "ProofError"), (label, want)
                assert got is False, label
                if label.startswith("depth"):
                    assert merged == ref_merged == ("ProofError", "mixed-depth SMT proofs")
                else:
                    assert merged == ("ProofError", "malformed SMT proof"), label
                malformed += 1
    assert malformed  # dropped / duplicated siblings and toggled mask bits


# -- the first satellite: malformed proofs fail typed -----------------------------------


def malformed_cases(proof: SMTProof, value: bytes):
    """(label, proof, value, what the parent commit did with it)."""
    depth, mask, siblings = proof.depth, proof.default_mask, proof.siblings
    assert len(siblings) >= 2
    return [
        ("one sibling short", replace(proof, siblings=siblings[:-1]), value,
         "IndexError"),
        ("one sibling too many", replace(proof, siblings=siblings + siblings[:1]),
         value, "ProofError"),
        ("float mask", replace(proof, default_mask=float(mask)), value, "TypeError"),
        ("bool mask", replace(proof, default_mask=True), value, "IndexError"),
        ("negative mask", replace(proof, default_mask=mask - (1 << depth)), value,
         True),
        ("mask wider than depth", replace(proof, default_mask=mask | 1 << 200),
         value, True),
        ("non-bytes sibling", replace(proof, siblings=(7,) + siblings[1:]), value,
         "TypeError"),
        ("bytearray sibling",
         replace(proof, siblings=(bytearray(siblings[0]),) + siblings[1:]), value,
         True),
        ("short sibling", replace(proof, siblings=(siblings[0][:31],) + siblings[1:]),
         value, False),
        ("siblings not a sequence", replace(proof, siblings=7), value, "TypeError"),
        ("non-bytes value", proof, 7, "TypeError"),
        ("non-bytes key", replace(proof, key=7), value, False),
        ("31-byte key", replace(proof, key=proof.key[:31]), value, "StateError"),
        ("depth 300", replace(proof, depth=300), value, "ValueError"),
        ("depth 0", replace(proof, depth=0), value, "ProofError"),
        ("negative depth", replace(proof, depth=-1), value, "ProofError"),
        ("float depth", replace(proof, depth=float(depth)), value, "TypeError"),
    ]


def test_malformed_proofs_fail_typed():
    """A prover-chosen field of the wrong type, range or count is a False
    verdict from ``verify_proof`` and a ProofError from the merge -- i.e.
    from every ecall that runs ``blk_verify_t``.
    The last column is what the parent commit's loops did instead."""
    rng = random.Random(2500)
    tree = random_tree(64, 64, rng)
    key, value = next(iter(tree.items()))
    proof = tree.prove(key)
    assert verify_proof(tree.root, key, value, proof)
    for label, bad, claim, parent_did in malformed_cases(proof, value):
        claimed_key = bad.key if label != "non-bytes key" else key
        did = outcome(ref_verify_proof, tree.root, claimed_key, claim, bad)
        assert (did[0] if isinstance(did, tuple) else did) == parent_did, (label, did)
        assert verify_proof(tree.root, claimed_key, claim, bad) is False, label
        slice_ = PartialSMT(64)
        with pytest.raises(ProofError):
            slice_.merge_entry(tree.root, claimed_key, claim, bad)
        assert len(slice_) == 0, label
    for depth in (0, 257, 300, -1, 64.0, True, None, "64"):
        with pytest.raises(ProofError, match="depth"):
            PartialSMT(depth)
    # from_proofs takes the depth from the first (untrusted) proof.
    with pytest.raises(ProofError):
        PartialSMT.from_proofs(tree.root, [(key, value, replace(proof, depth=300))])
