"""Sealed storage: enclave data that survives restarts.

Real SGX lets an enclave *seal* data to its identity: the sealing key is
derived from the hardware fuse key and MRENCLAVE, so only the same
program on the same machine can unseal.  DCert needs this for the
enclave signing key ``sk_enc`` — without sealing, every CI restart
would mint a new key and force clients to re-check a fresh attestation
report (§4.3 allows that, but sealing avoids it).

The simulation derives the sealing key from (platform hardware key,
measurement) and authenticates ciphertexts with HMAC; a different
program or platform computes a different key and fails the MAC.  The
"encryption" is an HMAC-SHA256 keystream — standard-library only, and
the secrecy property it models is keyed isolation, not IND-CCA against
a cryptanalyst.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.hashing import Digest
from repro.errors import EnclaveError
from repro.sgx.platform import SGXPlatform

_MAC_SIZE = 32


def _sealing_key(platform: SGXPlatform, measurement: Digest) -> bytes:
    secret = platform._hardware_private_key.secret.to_bytes(32, "big")
    return hmac.new(secret, b"seal" + measurement, hashlib.sha256).digest()


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the HMAC-SHA256 counter keystream of (key, nonce).

    HMAC's keyed inner and outer hash states are built once and copied
    per 32-byte block, so a block costs two SHA-256 compressions, not the
    four of a fresh ``hmac.new``; the bytes are the same (sealed blobs
    are a format).  ``key`` is a 32-byte digest, so it is HMAC's padded
    key as it stands.
    """
    padded = key.ljust(hashlib.sha256().block_size, b"\0")
    inner = hashlib.sha256(bytes(byte ^ 0x36 for byte in padded) + nonce)
    outer = hashlib.sha256(bytes(byte ^ 0x5C for byte in padded))

    def block(counter: int) -> bytes:
        keyed = inner.copy()
        keyed.update(counter.to_bytes(8, "big"))
        mac = outer.copy()
        mac.update(keyed.digest())
        return mac.digest()

    blocks = -(-len(data) // _MAC_SIZE)
    stream = b"".join(map(block, range(blocks)))[: len(data)]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def seal(platform: SGXPlatform, measurement: Digest, plaintext: bytes) -> bytes:
    """Seal ``plaintext`` to (platform, measurement)."""
    key = _sealing_key(platform, measurement)
    nonce = hashlib.sha256(b"nonce" + key + plaintext).digest()[:16]
    ciphertext = _xor_keystream(key, nonce, plaintext)
    mac = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + mac


def unseal(platform: SGXPlatform, measurement: Digest, sealed: bytes) -> bytes:
    """Unseal data; raises :class:`EnclaveError` unless the same program
    on the same platform sealed it."""
    if len(sealed) < 16 + _MAC_SIZE:
        raise EnclaveError("sealed blob too short")
    key = _sealing_key(platform, measurement)
    nonce, body, mac = sealed[:16], sealed[16:-_MAC_SIZE], sealed[-_MAC_SIZE:]
    expected = hmac.new(key, nonce + body, hashlib.sha256).digest()
    if not hmac.compare_digest(mac, expected):
        raise EnclaveError("sealed data does not belong to this enclave identity")
    return _xor_keystream(key, nonce, body)
