"""Blocks and block headers (the paper's Fig. 1 layout).

A header carries exactly the four fields the paper names — the previous
block hash ``H_prev_blk``, the consensus proof ``pi_cons`` (a PoW nonce
plus its difficulty), the state root ``H_state``, and the transaction
root ``H_tx`` — plus the height and a timestamp.  Headers serialize to a
stable byte encoding so that light-client storage (Fig. 7a) is measured
in honest bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.chain.transaction import Transaction
from repro.crypto.hashing import Digest, hash_concat
from repro.errors import BlockValidationError
from repro.merkle.mht import MerkleTree

ZERO_HASH: Digest = bytes(32)


class EncodedSize:
    """``size_bytes()`` of a frozen object with an ``encode()``: encoded
    once, the length kept in a slot that is not a dataclass field (so it
    is not on the wire and not in ``==``, ``hash`` or ``replace``)."""

    __slots__ = ("_size_bytes",)

    def size_bytes(self) -> int:
        try:
            return self._size_bytes
        except AttributeError:
            object.__setattr__(self, "_size_bytes", len(self.encode()))
            return self._size_bytes


@dataclass(frozen=True, slots=True)
class BlockHeader(EncodedSize):
    """Immutable block header."""

    height: int
    prev_hash: Digest
    nonce: int  # pi_cons: the PoW solution
    difficulty_bits: int  # pi_cons: the target this block met
    state_root: Digest  # H_state
    tx_root: Digest  # H_tx
    timestamp: int

    def header_hash(self) -> Digest:
        """The block hash: H(hdr)."""
        return hash_concat(
            b"blk-hdr",
            self.height.to_bytes(8, "big"),
            self.prev_hash,
            self.nonce.to_bytes(8, "big"),
            self.difficulty_bits.to_bytes(2, "big"),
            self.state_root,
            self.tx_root,
            self.timestamp.to_bytes(8, "big"),
        )

    def encode(self) -> bytes:
        """Stable wire encoding (used for storage accounting)."""
        return json.dumps(
            {
                "height": self.height,
                "prev": self.prev_hash.hex(),
                "nonce": self.nonce,
                "bits": self.difficulty_bits,
                "state": self.state_root.hex(),
                "tx": self.tx_root.hex(),
                "ts": self.timestamp,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "BlockHeader":
        try:
            raw = json.loads(data.decode("utf-8"))
            return cls(
                height=int(raw["height"]),
                prev_hash=bytes.fromhex(raw["prev"]),
                nonce=int(raw["nonce"]),
                difficulty_bits=int(raw["bits"]),
                state_root=bytes.fromhex(raw["state"]),
                tx_root=bytes.fromhex(raw["tx"]),
                timestamp=int(raw["ts"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise BlockValidationError(f"malformed header encoding: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Block:
    """A header plus its full transaction list."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    def block_hash(self) -> Digest:
        return self.header.header_hash()

    def compute_tx_root(self) -> Digest:
        return MerkleTree([tx.encode() for tx in self.transactions]).root

    def check_tx_root(self) -> bool:
        """True iff the header's H_tx commits to these transactions."""
        return self.compute_tx_root() == self.header.tx_root


def encode_block(block: Block) -> bytes:
    """Stable wire encoding of a full block (header + transactions)."""
    import json

    return json.dumps(
        {
            "header": block.header.encode().decode("utf-8"),
            "txs": [tx.encode().decode("utf-8") for tx in block.transactions],
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_block(data: bytes, keys: dict | None = None) -> Block:
    """Parse :func:`encode_block` output; raises on malformed input."""
    import json

    from repro.chain.transaction import Transaction

    try:
        raw = json.loads(data.decode("utf-8"))
        header = BlockHeader.decode(raw["header"].encode("utf-8"))
        transactions = tuple(
            Transaction.decode(tx.encode("utf-8"), keys) for tx in raw["txs"]
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise BlockValidationError(f"malformed block encoding: {exc}") from exc
    return Block(header=header, transactions=transactions)
