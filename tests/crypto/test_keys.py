"""Key generation and SEC 1 compressed serialization."""

import pytest

from repro.crypto.keys import PrivateKey, PublicKey, generate_keypair
from repro.errors import CryptoError


def test_seeded_generation_is_deterministic():
    assert generate_keypair(b"seed") == generate_keypair(b"seed")
    assert generate_keypair(b"seed") != generate_keypair(b"other")


def test_unseeded_generation_is_unique():
    assert generate_keypair() != generate_keypair()


def test_public_key_roundtrip():
    keypair = generate_keypair(b"roundtrip")
    encoded = keypair.public.to_bytes()
    assert len(encoded) == 33
    assert encoded[0] in (2, 3)
    assert PublicKey.from_bytes(encoded) == keypair.public


def test_public_key_rejects_malformed_bytes():
    with pytest.raises(CryptoError):
        PublicKey.from_bytes(b"\x04" + bytes(32))
    with pytest.raises(CryptoError):
        PublicKey.from_bytes(b"\x02" + bytes(31))


def test_public_key_rejects_off_curve_x():
    # x = 5 is not on secp256k1 (5^3 + 7 is not a QR mod p).
    with pytest.raises(CryptoError):
        PublicKey.from_bytes(b"\x02" + (5).to_bytes(32, "big"))


def test_public_key_rejects_off_curve_point():
    with pytest.raises(CryptoError):
        PublicKey(1, 1)


def test_public_key_rejects_non_integer_and_out_of_field_coordinates():
    from repro.crypto import ecdsa

    public = generate_keypair(b"coordinates").public
    bad_points = [
        (public.x, float(public.y)),  # float arithmetic passes the curve check
        (float(public.x), public.y),
        (public.x, public.y + ecdsa.P),  # on the curve mod P, outside the field
        (public.x, public.y - ecdsa.P),
        (public.x, str(public.y)),
        (public.x, None),
    ]
    for x, y in bad_points:
        with pytest.raises(CryptoError):
            PublicKey(x, y)


def test_private_key_range_enforced():
    with pytest.raises(CryptoError):
        PrivateKey(0)


def test_keypair_is_consistent():
    keypair = generate_keypair(b"consistency")
    assert keypair.private.public_key() == keypair.public


def test_fingerprint_is_stable_and_short():
    keypair = generate_keypair(b"fp")
    assert len(keypair.public.fingerprint()) == 8
    assert keypair.public.fingerprint() == keypair.public.fingerprint()
