"""Cryptographic substrate: hashing and secp256k1 ECDSA signatures.

The DCert paper relies on two primitives: a collision-resistant hash
function (SHA-256) for every Merkle structure and block digest, and a
digital signature scheme for the enclave-resident certification key and
for transaction authorization.  Both are implemented here from scratch —
the ECDSA implementation is pure Python over secp256k1 with RFC-6979
deterministic nonces, which keeps the whole reproduction dependency-free
and deterministic.
"""

from repro.crypto.hashing import (
    HASH_SIZE,
    Digest,
    hash_concat,
    hash_leaf,
    hash_node,
    sha256,
    tagged_hash,
)
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.crypto.signature import Signature, pin_verification_key, sign, verify

__all__ = [
    "HASH_SIZE",
    "Digest",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "generate_keypair",
    "hash_concat",
    "hash_leaf",
    "hash_node",
    "pin_verification_key",
    "sha256",
    "sign",
    "tagged_hash",
    "verify",
]
