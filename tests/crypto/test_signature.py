"""High-level sign/verify API with signing domains."""

import pytest

from repro.crypto import generate_keypair, sign, verify
from repro.crypto.signature import Signature
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"sig-tests")


def test_sign_verify_roundtrip(keypair):
    signature = sign(keypair.private, b"payload")
    assert verify(keypair.public, b"payload", signature)


def test_verify_rejects_tampered_message(keypair):
    signature = sign(keypair.private, b"payload")
    assert not verify(keypair.public, b"payloaX", signature)


def test_verify_rejects_cross_domain_replay(keypair):
    """A signature from one domain must not verify in another."""
    signature = sign(keypair.private, b"payload", domain="repro-tx")
    assert not verify(keypair.public, b"payload", signature, domain="dcert-cert")
    assert verify(keypair.public, b"payload", signature, domain="repro-tx")


def test_verify_rejects_other_signer(keypair):
    other = generate_keypair(b"other-signer")
    signature = sign(other.private, b"payload")
    assert not verify(keypair.public, b"payload", signature)


def test_signature_serialization_roundtrip(keypair):
    signature = sign(keypair.private, b"payload")
    encoded = signature.to_bytes()
    assert len(encoded) == 64
    assert Signature.from_bytes(encoded) == signature


def test_signature_rejects_bad_length():
    with pytest.raises(CryptoError):
        Signature.from_bytes(bytes(63))


@pytest.mark.parametrize(
    "bad",
    [1.0, 2.5e70, "7", True, None, -1, 1 << 256],
    ids=["float", "big-float", "str", "bool", "none", "negative", "2**256"],
)
def test_signature_scalars_must_be_256_bit_ints(keypair, bad):
    """``Signature`` is decoded from untrusted JSON: a non-int or an
    out-of-range scalar has to fail here, typed, not later as
    ``AttributeError`` / ``TypeError`` in ``to_bytes`` or ``verify``."""
    good = sign(keypair.private, b"payload")
    with pytest.raises(CryptoError):
        Signature(bad, good.s)
    with pytest.raises(CryptoError):
        Signature(good.r, bad)


def test_signature_scalar_bounds_are_inclusive_of_every_encodable_value():
    assert Signature(0, (1 << 256) - 1).to_bytes() == bytes(32) + b"\xff" * 32
