"""High-level sign/verify API over the ECDSA engine.

Messages are hashed with a caller-supplied domain tag so signatures over,
say, block digests can never be replayed as transaction authorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import ecdsa
from repro.crypto.hashing import tagged_hash
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import CryptoError


@dataclass(frozen=True, slots=True)
class Signature:
    """An ECDSA signature, serialized as the fixed 64-byte ``r || s``."""

    r: int
    s: int

    def __post_init__(self) -> None:
        # Exact ints only: a float or str decodes off the wire, and
        # fails far from here, as TypeError, inside to_bytes or verify.
        for scalar in (self.r, self.s):
            if type(scalar) is not int or not 0 <= scalar < 1 << 256:
                raise CryptoError("signature scalar is not a 256-bit integer")

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise CryptoError("signature must be exactly 64 bytes")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def sign(private: PrivateKey, message: bytes, domain: str = "repro-msg") -> Signature:
    """Sign ``message`` under the given domain tag."""
    digest = tagged_hash(domain, message)
    r, s = ecdsa.sign_digest(private.secret, digest)
    return Signature(r, s)


def verify(
    public: PublicKey, message: bytes, signature: Signature, domain: str = "repro-msg"
) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``domain``."""
    digest = tagged_hash(domain, message)
    try:
        return ecdsa.verify_digest(public.point, digest, (signature.r, signature.s))
    except CryptoError:
        return False


def pin_verification_key(public: PublicKey) -> None:
    """Precompute ``public``'s verification table: only for a key just
    authenticated (see :func:`repro.crypto.ecdsa.pin_public_point`)."""
    ecdsa.pin_public_point(public.point)
