"""The crypto substrate: key encodings round-trip, signatures verify for
the signed message only, ``hash_concat`` is injective on part lists,
``sha256`` is a stable 32-byte digest.
Seeds and replay: tests/proptest/framework.py.
"""

from __future__ import annotations

from repro.crypto import ecdsa, generate_keypair, sign, verify
from repro.crypto.hashing import hash_concat, sha256
from repro.crypto.keys import PublicKey
from tests.proptest.framework import blob, run_cases


def test_public_key_roundtrip_for_any_scalar():
    def prop(rng):
        point = ecdsa.derive_public_point(rng.randrange(1, ecdsa.N))
        public = PublicKey(point[0], point[1])
        assert PublicKey.from_bytes(public.to_bytes()) == public

    run_cases(prop)


def test_sign_verify_roundtrip_any_key_any_message():
    def prop(rng):
        keypair = generate_keypair(rng.randrange(1, ecdsa.N).to_bytes(32, "big"))
        message = blob(rng, 0, 128)
        assert verify(keypair.public, message, sign(keypair.private, message))

    run_cases(prop)


def test_any_bit_flip_breaks_verification():
    keypair = generate_keypair(b"prop-flip")

    def prop(rng):
        message = blob(rng, 0, 128)
        signature = sign(keypair.private, message)
        tampered = bytearray(message + b"\x00")  # ensure non-empty
        tampered[0] ^= 1 << rng.randrange(8)
        assert not verify(keypair.public, bytes(tampered), signature)

    run_cases(prop)


def test_hash_concat_injective_on_part_lists():
    def prop(rng):
        for _ in range(8):
            parts_a = [blob(rng) for _ in range(rng.randint(0, 5))]
            parts_b = rng.choice(([blob(rng) for _ in range(rng.randint(0, 5))], list(parts_a)))
            digest = hash_concat(*parts_a)
            assert (digest == hash_concat(*parts_b)) == (parts_a == parts_b)
            assert len(digest) == len(sha256(b"".join(parts_a))) == 32

    run_cases(prop)


def test_sha256_stable():
    def prop(rng):
        for _ in range(8):
            data = blob(rng, 0, 64)
            digest = sha256(data)
            assert digest == sha256(bytes(data)) and len(digest) == 32

    run_cases(prop)
