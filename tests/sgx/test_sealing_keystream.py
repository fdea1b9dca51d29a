"""The sealing keystream at checkpoint sizes: a 64-KB blob round-trips,
a flipped bit in its last block is refused, and the stream is the
HMAC-SHA256 counter stream it has always been."""

import hashlib
import hmac

import pytest

from repro.crypto.hashing import sha256
from repro.errors import EnclaveError
from repro.sgx.platform import SGXPlatform
from repro.sgx.sealing import _xor_keystream, seal, unseal

MEASUREMENT = sha256(b"program-identity")
SIZE = 64 * 1024


@pytest.fixture()
def platform():
    return SGXPlatform(seed=b"seal-keystream-tests")


def _plaintext(size: int) -> bytes:
    return hashlib.shake_256(b"checkpoint-like").digest(size)


def test_a_64_kb_blob_round_trips(platform):
    plaintext = _plaintext(SIZE)
    sealed = seal(platform, MEASUREMENT, plaintext)
    assert len(sealed) == 16 + SIZE + 32
    assert plaintext[:64] not in sealed
    assert unseal(platform, MEASUREMENT, sealed) == plaintext


@pytest.mark.parametrize("offset", [-33, -32 - 1024, -1])
def test_a_flip_near_the_end_is_refused(platform, offset):
    """-33 is the last ciphertext byte, -32-1024 inside the last KB of
    ciphertext, -1 the MAC itself."""
    sealed = bytearray(seal(platform, MEASUREMENT, _plaintext(SIZE)))
    sealed[offset] ^= 0x01
    with pytest.raises(EnclaveError):
        unseal(platform, MEASUREMENT, bytes(sealed))


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 1000])
def test_the_stream_is_hmac_sha256_of_nonce_and_counter(size):
    key, nonce = sha256(b"key"), b"n" * 16
    reference = b"".join(
        hmac.new(key, nonce + counter.to_bytes(8, "big"), hashlib.sha256).digest()
        for counter in range(-(-size // 32))
    )[:size]
    assert _xor_keystream(key, nonce, bytes(size)) == reference
