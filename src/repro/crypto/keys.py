"""Key pairs and serialization for the library's ECDSA scheme.

Public keys serialize to the 33-byte SEC 1 compressed form; that is the
form embedded in DCert certificates (``pk_enc``) and attestation quotes.
Key generation is deterministic when given a seed, which the test suite
and the benchmark workload generators rely on for reproducibility.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.crypto import ecdsa
from repro.errors import CryptoError


@dataclass(frozen=True, slots=True)
class PublicKey:
    """A secp256k1 public key (affine point)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        # Exact ints only: float arithmetic can satisfy the curve check.
        for coordinate in (self.x, self.y):
            if type(coordinate) is not int or not 0 <= coordinate < ecdsa.P:
                raise CryptoError("public key coordinate is not a field element")
        if not ecdsa.is_on_curve((self.x, self.y)):
            raise CryptoError("public key point is not on secp256k1")

    @property
    def point(self) -> tuple[int, int]:
        return (self.x, self.y)

    def to_bytes(self) -> bytes:
        """Serialize to 33-byte SEC 1 compressed form."""
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Parse a 33-byte SEC 1 compressed public key."""
        if len(data) != 33 or data[0] not in (2, 3):
            raise CryptoError("malformed compressed public key")
        x = int.from_bytes(data[1:], "big")
        if x >= ecdsa.P:
            raise CryptoError("public key x coordinate out of range")
        y_squared = (pow(x, 3, ecdsa.P) + ecdsa.B) % ecdsa.P
        y = pow(y_squared, (ecdsa.P + 1) // 4, ecdsa.P)
        if (y * y) % ecdsa.P != y_squared:
            raise CryptoError("public key x is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = ecdsa.P - y
        return cls(x, y)

    def fingerprint(self) -> bytes:
        """A short stable identifier for the key (first 8 digest bytes)."""
        return hashlib.sha256(self.to_bytes()).digest()[:8]


def decode_public_key(data: bytes, keys: dict[bytes, PublicKey] | None) -> PublicKey:
    """:meth:`PublicKey.from_bytes` through ``keys``, the map one pass
    owns of what it decoded so far (never a process-wide one), if any."""
    if keys is None:
        return PublicKey.from_bytes(data)
    if data not in keys:
        keys[data] = PublicKey.from_bytes(data)
    return keys[data]


@dataclass(frozen=True, slots=True)
class PrivateKey:
    """A secp256k1 private scalar.  Never serialized by the library."""

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < ecdsa.N:
            raise CryptoError("private key scalar out of range")

    def public_key(self) -> PublicKey:
        point = ecdsa.derive_public_point(self.secret)
        assert point is not None
        return PublicKey(point[0], point[1])


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A matched private/public key pair."""

    private: PrivateKey
    public: PublicKey


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Generate a key pair, deterministically if ``seed`` is given.

    With a seed, the private scalar is derived via domain-separated
    SHA-256 stretching so distinct seeds give independent keys.
    """
    counter = 0
    while True:
        if seed is None:
            material = os.urandom(32)
        else:
            material = hashlib.sha256(
                b"repro-keygen" + counter.to_bytes(4, "big") + seed
            ).digest()
        secret = int.from_bytes(material, "big")
        if 1 <= secret < ecdsa.N:
            private = PrivateKey(secret)
            return KeyPair(private, private.public_key())
        counter += 1
