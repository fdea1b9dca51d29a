"""Message types carried on the simulated network."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.chain.block import Block, BlockHeader
from repro.core.certificate import Certificate
from repro.crypto.hashing import Digest


@dataclass(frozen=True, slots=True)
class BlockAnnouncement:
    """A miner/full node announcing a new block."""

    block: Block

    @property
    def topic(self) -> str:
        return "blocks"


@dataclass(frozen=True, slots=True)
class CertificateAnnouncement:
    """A CI broadcasting a block (and optionally index) certificate."""

    header: BlockHeader
    certificate: Certificate
    index_certificates: dict[str, Certificate] = field(default_factory=dict)
    index_roots: dict[str, Digest] = field(default_factory=dict)

    @property
    def topic(self) -> str:
        return "certificates"


# -- the push stream (repro.net.pubsub) --------------------------------------


@dataclass(frozen=True, slots=True)
class PushEnvelope:
    """One hub→subscriber push: a canonically wire-encoded
    :class:`repro.net.pubsub.TipAnnouncement`.

    The announcement crosses as *bytes* (like an RPC payload) so the
    fault layer can corrupt it exactly as a real network would — the
    subscriber must treat an undecodable or unverifiable envelope as a
    forgery, never as a tip.
    """

    payload: bytes

    def corrupted(self, rng: random.Random) -> "PushEnvelope":
        from repro.net.faults import flip_hex_digit

        return replace(self, payload=flip_hex_digit(self.payload, rng))


@dataclass(frozen=True, slots=True)
class StreamAck:
    """Subscriber→hub: cumulative ack up to ``seq`` (also renews the
    subscriber's lease)."""

    subscriber: str
    seq: int
