"""The traditional light client — DCert's baseline in Fig. 7.

It synchronizes *every* block header, validating linkage and the
consensus proof for each, and keeps them all.  Storage therefore grows
linearly with chain length and bootstrapping revalidates the whole
header chain — the two costs DCert's superlight client replaces with
constants.
"""

from __future__ import annotations

from repro.chain.block import BlockHeader
from repro.chain.consensus import ProofOfWork
from repro.errors import BlockValidationError


class LightClient:
    """Header-only client with full-chain validation."""

    def __init__(self, genesis: BlockHeader, pow_engine: ProofOfWork) -> None:
        if genesis.height != 0:
            raise BlockValidationError("genesis header must have height 0")
        self.headers: list[BlockHeader] = [genesis]
        self.pow = pow_engine

    @property
    def tip(self) -> BlockHeader:
        return self.headers[-1]

    def sync_header(self, header: BlockHeader) -> None:
        """Validate one new header against the current tip and keep it."""
        prev = self.tip
        if header.height != prev.height + 1:
            raise BlockValidationError("header does not extend the tip")
        if header.prev_hash != prev.header_hash():
            raise BlockValidationError("previous-hash linkage broken")
        if not self.pow.check(header):
            raise BlockValidationError("consensus proof (PoW) invalid")
        self.headers.append(header)

    def bootstrap(self, headers: list[BlockHeader]) -> None:
        """Sync a whole header chain (the Fig. 7b measurement target)."""
        for header in headers:
            self.sync_header(header)

    def storage_bytes(self) -> int:
        """Total bytes of stored headers (the Fig. 7a measurement)."""
        return sum(header.size_bytes() for header in self.headers)
