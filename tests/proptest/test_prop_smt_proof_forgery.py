"""The Merkle-proof leg of the forgery properties: a single byte
flipped anywhere in an SMT proof's wire encoding must make verification
fail against the original root, and the proof vouches for one value.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.errors import ReproError
from repro.net import wire
from repro.merkle.smt import SparseMerkleTree, verify_proof
from tests.proptest.framework import mutate_one_byte, run_cases


def _proof_fixture():
    tree = SparseMerkleTree(depth=32)
    items = {sha256(f"key{i}".encode()): f"value{i}".encode() for i in range(8)}
    for key, value in items.items():
        tree.update(key, value)
    key = sha256(b"key3")
    return tree.root, key, items[key], tree.prove(key)


def test_smt_proof_single_byte_mutations_rejected():
    root, key, value, proof = _proof_fixture()
    encoded = wire.encode(proof)

    def prop(rng):
        mutated = mutate_one_byte(encoded, rng)
        try:
            corrupted = wire.decode(mutated)
        except ReproError:
            return  # rejected at the parse boundary
        if corrupted == proof:
            return  # same meaning, not a forgery
        try:
            accepted = verify_proof(root, key, value, corrupted)
        except (ReproError, AttributeError, TypeError, IndexError):
            return  # malformed proof structure detected
        assert not accepted, "mutated SMT proof verified against the root"

    run_cases(prop)


def test_smt_proof_wrong_value_rejected():
    """The same proof must not vouch for any other value (or for
    non-membership) under the same root."""
    root, key, value, proof = _proof_fixture()

    def prop(rng):
        wrong = bytes(rng.randrange(256) for _ in range(rng.randint(0, 8)))
        if wrong == value:
            return
        assert not verify_proof(root, key, wrong, proof)
        assert not verify_proof(root, key, None, proof)

    run_cases(prop)
