"""Signed account-model transactions.

A transaction invokes one method of one contract with byte-encoded
arguments.  The sender authorizes it with an ECDSA signature over its
canonical encoding; miners, full nodes, *and the enclave program*
(Alg. 2, line 19) all re-check that signature before accepting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto import PublicKey, Signature, sign, verify
from repro.crypto.hashing import Digest, hash_concat
from repro.crypto.keys import PrivateKey, decode_public_key
from repro.errors import TransactionError

_SIG_DOMAIN = "repro-tx"


@dataclass(frozen=True, slots=True)
class Transaction:
    """One signed contract invocation."""

    sender: PublicKey
    nonce: int
    contract: str
    method: str
    args: tuple[str, ...]
    signature: Signature | None = field(default=None, compare=False)

    def signing_payload(self) -> bytes:
        """Canonical byte encoding covered by the signature."""
        return hash_concat(
            self.sender.to_bytes(),
            self.nonce.to_bytes(8, "big"),
            self.contract.encode("utf-8"),
            self.method.encode("utf-8"),
            json.dumps(list(self.args)).encode("utf-8"),
        )

    def tx_hash(self) -> Digest:
        """Transaction id: hash of payload and signature."""
        sig = self.signature.to_bytes() if self.signature is not None else b""
        return hash_concat(b"txid", self.signing_payload(), sig)

    def encode(self) -> bytes:
        """Wire encoding, also used as the Merkle tree leaf payload."""
        body = json.dumps(
            {
                "sender": self.sender.to_bytes().hex(),
                "nonce": self.nonce,
                "contract": self.contract,
                "method": self.method,
                "args": list(self.args),
                "sig": self.signature.to_bytes().hex() if self.signature else None,
            },
            sort_keys=True,
        )
        return body.encode("utf-8")

    @classmethod
    def decode(cls, data: bytes, keys: dict | None = None) -> "Transaction":
        try:
            raw = json.loads(data.decode("utf-8"))
            return cls(
                sender=decode_public_key(bytes.fromhex(raw["sender"]), keys),
                nonce=int(raw["nonce"]),
                contract=raw["contract"],
                method=raw["method"],
                args=tuple(raw["args"]),
                signature=(
                    Signature.from_bytes(bytes.fromhex(raw["sig"]))
                    if raw["sig"]
                    else None
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TransactionError(f"malformed transaction encoding: {exc}") from exc

    def verify_signature(self) -> bool:
        """True iff the sender's signature is present and valid."""
        if self.signature is None:
            return False
        return verify(self.sender, self.signing_payload(), self.signature, _SIG_DOMAIN)


def sign_transaction(
    private: PrivateKey,
    nonce: int,
    contract: str,
    method: str,
    args: tuple[str, ...],
) -> Transaction:
    """Build and sign a transaction with the sender's private key."""
    unsigned = Transaction(
        sender=private.public_key(),
        nonce=nonce,
        contract=contract,
        method=method,
        args=args,
    )
    signature = sign(private, unsigned.signing_payload(), _SIG_DOMAIN)
    return Transaction(
        sender=unsigned.sender,
        nonce=nonce,
        contract=contract,
        method=method,
        args=args,
        signature=signature,
    )
