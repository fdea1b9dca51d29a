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
    """``data`` XOR the HMAC-SHA256 counter keystream of (key, nonce):
    one HMAC per 32 bytes, joined once, XORed as one big integer."""
    blocks = -(-len(data) // _MAC_SIZE)
    stream = b"".join(
        hmac.new(key, nonce + counter.to_bytes(8, "big"), hashlib.sha256).digest()
        for counter in range(blocks)
    )[: len(data)]
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
